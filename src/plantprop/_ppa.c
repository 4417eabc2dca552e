/*
 * Compiled engine of plantprop: xoshiro256++ stream, objective dispatch and
 * the plant propagation loop, in plain C99 behind a flat ABI for ctypes.
 *
 * This file mirrors rng.py, benchmarks.py and core.py operation for
 * operation (same draw order, same IEEE double expression shapes, same libm
 * calls), so a run here is bit-identical to the pure-Python engine. Keep the
 * four files in lockstep when touching any formula.
 *
 * Values that stay the same for a whole run (the ellipse weights, the
 * griewank divisors, the box widths) are computed once per run into tables
 * instead of once per coordinate. Each table entry is the same double the
 * Python expression computes inline, so hoisting changes no result.
 *
 * Survivor selection reaches core.select_survivors' order without sorting
 * the whole pool (see the comment in ppa_run): an inlined Shell sort orders
 * the few candidates without qsort's call per comparison. eval is forced
 * inline into the run loop, so the objective costs no call per offspring.
 *
 * Four shortcuts skip work whose result cannot show. The first three rest
 * on one rule: an offspring survives only if its objective is below fmax,
 * the worst parent's, and the best value so far is at most fmin <= fmax.
 * - Early stop (bowl_child, from n = 4). Sphere, cigar, tablet and
 *   rosenbrock sum terms that are >= 0, and rounding is monotone, so a
 *   partial sum never exceeds the full one. Once a child's running value
 *   reaches fmax it can neither survive nor be the best, so it stops there.
 *   It still counts as an evaluation, keeps a value >= fmax and takes the
 *   draws of the coordinates it skips, so the stream and every result stay
 *   the same. Ellipse's weighted terms grow along the coordinates, so its
 *   sum reaches fmax late; stopping measured slower there, and it keeps the
 *   plain loop. The stop is fused with the mutation, so it saves the
 *   mutation of the coordinates it skips; making the child in full and
 *   stopping only its sum, as eval's check does, took 1.15-1.32 (factor
 *   1000) and 1.28-1.78 (vanilla) of this time on the four bowls at
 *   n = 30. ppa_run calls bowl_child from a chain of four calls, each with
 *   a constant fid, so that bowl_term and bowl_value, which read fid at
 *   every coordinate, fold to one bowl; eval reads its fid once per
 *   evaluation, so it takes the run's. Passing bowl_child the run's fid
 *   took 1.01-1.07 of this time on sphere, cigar and tablet at n = 30.
 * - Lower bound (eval's check). Griewank, ackley, rastrigin, schwefel,
 *   easom and branin spend most of their time in cos or sin. A child is
 *   made in full (so the draws are the same), then eval, with check on,
 *   bounds its objective from below: its own partial result, plus a bound
 *   on the terms still to come. Once that reaches fmax, the child stops
 *   with fmax as its value and still counts as an evaluation. The check
 *   runs before the first libm term and, except for rastrigin, again after
 *   each one. There is one copy of each formula: the stop tests and what
 *   only they need (the term tables, the suffix sums, lim) sit under check,
 *   and the rest is the objective itself, so with check off eval is the
 *   plain objective. Below, u = 2^-53; libm's cos and sin stay in [-1, 1],
 *   which holds for any libm whose error is below one ulp, since +-1 are
 *   doubles; rounding is monotone.
 *   - Term tables. Ackley, rastrigin and schwefel bound a term still to come
 *     by an entry of a table that ppa_run fills once per run (fill_bounds).
 *     For ackley and rastrigin, entry k bounds cos(TWO_PI * x) from above
 *     where frac(x) lies in bucket k of COS_BUCKETS = 256; for schwefel, it
 *     bounds the term x * sin(sqrt(fabs(x))) where x lies in bucket k of
 *     SCHWEFEL_BUCKETS = 1024 over [-500, 500]. An entry is f(mid) + L (h +
 *     1e-6) + 1e-9, capped, where mid is the bucket's midpoint, h half its
 *     width and L a bound on |f'| there: 2 pi for the cosine, and 1 +
 *     sqrt(m) / 2 for schwefel's term, whose slope is sin(r) + r cos(r) / 2
 *     at r = sqrt(|x|), with m = |mid| + h + 1e-6. Entry k bounds eval's
 *     rounded term at every double x whose computed index is k:
 *     - The index needs no libm call. Its rounding puts x within 3e-13 of
 *       bucket k for schwefel (x + 500.0 and the product with 1.024 round)
 *       and within 1.2e-10 for the cosine (x + 2^20 rounds by at most
 *       2^-33 where |x| <= COS_BOX = 2^16, the product with 256 is exact,
 *       and it is positive, so the cast floors it). Both lie well inside
 *       the 1e-6 widening, so x lies in [mid - h - 1e-6, mid + h + 1e-6]
 *       modulo the period, where f(x) <= f(mid) + L (h + 1e-6).
 *     - Eval's term differs from f(x) by at most 6.3e-11 for the cosine:
 *       TWO_PI * x is within |x| 9.5e-16 <= 6.3e-11 of 2 pi x (TWO_PI's own
 *       error and the product's rounding), and libm's cos adds one ulp. For
 *       schwefel it differs by at most 1.4e-12: the rounded sqrt moves the
 *       sin argument by at most 2.5e-15, libm's sin adds one ulp, and the
 *       product with |x| <= 500 rounds.
 *     - The entry's f(mid) is computed as eval computes it, so within 1e-15
 *       (mid in [0, 1]) or 1.4e-12 of f(mid), and forming the entry rounds
 *       by less than 1e-12.
 *     These add up to under 1e-10, below the 1e-9 added. The caps hold for
 *     eval's term everywhere: 1 for the cosine; m, since |x sin(..)| rounds
 *     to at most |x|, and 418.9829 (the term's largest magnitude on [-500,
 *     500] is 418.98288727, at |x| = 420.9687) for schwefel. So an entry,
 *     like a term, lies in [-1, 1] or in [-418.9829, 418.9829], and the
 *     reordering slacks below, which rest only on those magnitudes, hold.
 *     The proof needs the widening and the 1e-9; in practice the entries
 *     hold without them. Below its cap an entry exceeds every term of its
 *     bucket by at least 3e-7 (cosine) or 0.27 (schwefel), and a capped one
 *     by at least 2.4e-7, except the cosine's cap 1, which cos meets at
 *     integers and never passes.
 *   - Griewank: |p| never grows as factors of size <= 1 are multiplied in,
 *     so with eval's sum s and partial product p, s / 4000.0 - fabs(p) + 1.0
 *     rounds to at most eval's value. No slack is needed. Bounding the
 *     factors still to come as well, by suffix products of a table of
 *     |cos| bounds, measured 1.02-1.18 of this time at n = 2 to 30.
 *   - Rastrigin, when every coordinate lies in [-2^16, 2^16]: one check,
 *     10.0 * n + the sum of (x * x - 10.0 * T) in eval's order, with T the
 *     cosine's entry. Each such term rounds to at most eval's, since 10.0 *
 *     T is at least 10.0 * cos, and so does each partial sum; so the check
 *     needs no slack. A running check against suffix sums made up to 12%
 *     fewer cos calls but took 1-6% longer at n = 2 to 30.
 *   - Ackley, when every coordinate lies in [-2^16, 2^16] and n <= 2^20:
 *     with k terms summed into s2, eval's final s2 is at most s2 + w[k],
 *     w[k] the suffix sum of the cosine's entries from k on, up to
 *     reordering and the suffix sum's rounding, which cost at most 1.01 u
 *     n^2 and 0.5 u n^2. First, exp(s2 / n) is at most e < 2.72, so a child
 *     with A - 2.72 + 20.0 + E >= fmax stops at once (A is eval's exp term
 *     of s, exactly as eval computes it; the check is exact, as griewank's).
 *     Otherwise one log per child gives lim = n * (log(A + 20.0 + E - fmax -
 *     1e-9) - 1e-9), and the child stops once s2 + w[k] <= lim. The n *
 *     1e-9 in lim covers the reordering, the suffix sums, libm's exp and
 *     log (one ulp each, |log| <= 745) and the roundings of s2 / n, s2 +
 *     w[k] and lim, at most 1.8e-16 n^2 + 3.4e-13 n in all, while n <=
 *     BOUND_MAX_DIM = 2^20. So eval's exp(s2 / n) is below A + 20.0 + E -
 *     fmax - 1e-9 + 6e-14, where 6e-14 bounds the roundings in forming that
 *     difference, and the 1e-9 left covers those of A - exp(..) + 20.0 + E
 *     (under 1e-14). Both bounds hold where fmax >= -100; below that every
 *     value, at least -1e-14, is >= fmax anyway.
 *   - Schwefel, when every coordinate lies in [-500, 500] and n <= 2^20:
 *     w[k], the suffix sum of the entries from k on, bounds the terms still
 *     to come. The child stops once s + w[k] <= lim = 418.9829 * n - fmax -
 *     1e-10 * n * n. Eval's sum from s on, the suffix sum and s + w[k]
 *     differ from exact sums by at most 420 u n^2, 420 u n^2 and 840 u n,
 *     and lim's roundings by 2000 u n where it can be reached (|lim| <=
 *     1000 n); so eval's sum is at most 418.9829 * n - fmax and its value
 *     at least fmax.
 *   - Easom and branin, on any box: both proofs need only finite
 *     coordinates, and an overflow makes the bound inf >= fmax, never a
 *     nan. Easom computes e = exp(-(d1 * d1 + d2 * d2)) first; the rounded
 *     product -cos(x[0]) * cos(x[1]) has magnitude at most 1, so eval's
 *     value is at least -e, and a child with -e >= fmax stops. Otherwise it
 *     returns eval's expression with the same e. Branin's bound is eval's
 *     expression with -1.0 in place of cos(x1), in eval's order, so it is at
 *     most eval's value. At n = 2, under the perfbench grid's factors, they
 *     stop 89% and 88% of their offspring before any cos call.
 *   bound_applies makes these choices per run from the box and n; beyond
 *   them eval runs with check off. At n = 30 on the default boxes an
 *   evaluation of schwefel, rastrigin or ackley makes 1.3-2.9 sin or cos
 *   calls on average under vanilla PPA and 10.6-11.7 under factor 1000, of
 *   the 30 that eval makes with check off. That is near a floor no bound
 *   can pass: an offspring below the worst parent needs all n terms, and
 *   3-11% (vanilla) or 33-38% (factor 1000) of offspring are. Griewank,
 *   ackley, rastrigin and schwefel make 2-20% more calls than that floor;
 *   removing every call above it would save at most about 3% of the C time
 *   of perfbench's highdim-runs, so no tighter bound is pursued.
 * - Generations with no survivor. From the second generation on, the
 *   parents sit sorted, so the worst is obj[pop - 1]. When no offspring is
 *   below it, selection would give the parents back in their order, so the
 *   merge and the buffer swap are skipped. If the next generation then has
 *   the same steepness (always under vanilla PPA, where s is 1.0), fits[]
 *   still holds the parents' fitness, and min/max, normalization and tanh
 *   are skipped as well. The first generation, whose parents are not
 *   sorted yet, takes the full path. At n = 2 over the 14 functions, 85%,
 *   59%, 31%, 5% and 60% of generations make no survivor under factors
 *   100, 500, 1000, 2000 and vanilla.
 * - Row pointers. The parents are reached through pointers to their rows,
 *   so a surviving parent's row stays where it is, and selection copies
 *   only the surviving offspring, each into the row of a parent that
 *   dropped out.
 *
 * Build without -ffast-math and with -ffp-contract=off: IEEE semantics are
 * part of the contract, and a fused multiply-add rounds once where Python
 * rounds twice. _kernel.py compiles and loads it, and validates every
 * argument (function id, dimension, buffer lengths, counts >= 1, every
 * lower[j] < upper[j]) before the call; sizes derived here are checked here.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum {
    PPA_OK = 0,
    PPA_NONFINITE = 1, /* a parent's objective is inf or nan; see *bad_value */
    PPA_NOMEM = 2,     /* a buffer size overflows or an allocation failed */
    PPA_BADSTEEP = 3   /* the steepness in *bad_value gives a nan fitness */
};

#ifdef __GNUC__
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

/* exact doubles of math.pi / math.e */
#define PI 3.141592653589793
#define E 2.718281828459045
#define TWO_PI (2.0 * PI)

/* the limits of eval's stop (see the header): the largest n at which
   ackley and schwefel may stop, the box beyond which ackley and rastrigin
   never stop, and a bound on |x sin(sqrt(|x|))| for |x| <= 500 */
#define BOUND_MAX_DIM (INT64_C(1) << 20)
#define COS_BOX 0x1p16
#define SCHWEFEL_TERM 418.9829
/* buckets of eval's term bounds: schwefel's over [-500, 500], the
   cosine's over one period of frac(x); a run's table holds the larger */
#define SCHWEFEL_BUCKETS 1024
#define COS_BUCKETS 256

#define BRANIN_B (5.1 / (4.0 * PI * PI))
#define BRANIN_C (5.0 / PI)
#define BRANIN_T (1.0 / (8.0 * PI))

#define GAMMA UINT64_C(0x9E3779B97F4A7C15)

typedef struct {
    uint64_t s0, s1, s2, s3;
} rng_t;

static uint64_t rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

static void rng_seed(rng_t *r, uint64_t seed)
{
    seed += GAMMA;
    r->s0 = mix64(seed);
    seed += GAMMA;
    r->s1 = mix64(seed);
    seed += GAMMA;
    r->s2 = mix64(seed);
    seed += GAMMA;
    r->s3 = mix64(seed);
}

static uint64_t rng_u64(rng_t *r)
{
    uint64_t s0 = r->s0, s1 = r->s1, s2 = r->s2, s3 = r->s3;
    uint64_t result = rotl(s0 + s3, 23) + s0;
    uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    r->s0 = s0;
    r->s1 = s1;
    r->s2 = s2;
    r->s3 = s3;
    return result;
}

/* top 53 bits scaled by 2^-53: [0, 1) exactly */
static double rng_uniform(rng_t *r)
{
    return (double)(rng_u64(r) >> 11) * 0x1.0p-53;
}

/* the per-run constants eval reads from w: ellipse weights, griewank
   divisors (n doubles; other functions use none) */
static void fill_table(int fid, int64_t n, double *w)
{
    int64_t i;

    if (fid == 2) {
        for (i = 0; i < n; i++)
            w[i] = pow(10.0, 6.0 * (double)i / (double)(n - 1));
    } else if (fid == 4) {
        for (i = 0; i < n; i++)
            w[i] = sqrt((double)i + 1.0);
    }
}

/*
 * Sphere (0), cigar (1), tablet (3) and rosenbrock (5) sum terms that are
 * >= 0 or nan, one per coordinate after the first. bowl_start is the sum
 * before the term of x[1], bowl_term the term of x[j] (xp is x[j-1]), and
 * bowl_value the objective once the terms so far sum to s. eval adds them
 * for every coordinate; ppa_run's early stop adds them coordinate by
 * coordinate as a child is made. Both go through these functions, so they
 * add the same terms in the same order.
 */
static ALWAYS_INLINE double bowl_start(int fid, double x0)
{
    return fid == 0 ? x0 * x0 : 0.0; /* 0.0 + x0 * x0 is x0 * x0 */
}

static ALWAYS_INLINE double bowl_term(int fid, double xp, double x)
{
    double t1, t2;

    if (fid != 5)
        return x * x;
    t1 = x - xp * xp;
    t2 = 1.0 - xp;
    return 100.0 * (t1 * t1) + t2 * t2;
}

static ALWAYS_INLINE double bowl_value(int fid, double x0, double s)
{
    if (fid == 1)
        return x0 * x0 + 1.0e6 * s;
    if (fid == 3)
        return 1.0e6 * (x0 * x0) + s;
    return s;
}

static ALWAYS_INLINE double bowl(int fid, int64_t n, const double *x)
{
    double s = bowl_start(fid, x[0]);
    int64_t j;

    for (j = 1; j < n; j++)
        s += bowl_term(fid, x[j - 1], x[j]);
    return bowl_value(fid, x[0], s);
}

/*
 * Whether eval's stop is proved for fid on the box [lower, upper] (see the
 * header): always for griewank, easom and branin; inside [-COS_BOX,
 * COS_BOX] for rastrigin, and for ackley also only up to n = BOUND_MAX_DIM;
 * up to n = BOUND_MAX_DIM and inside [-500, 500] for schwefel.
 */
static int bound_applies(int fid, int64_t n, const double *lower,
                         const double *upper)
{
    double box = fid == 8 ? 500.0 : COS_BOX;
    int64_t j;

    if (fid == 4 || fid == 9 || fid == 11)
        return 1;
    if ((fid != 6 && fid != 7 && fid != 8) || (fid != 7 && n > BOUND_MAX_DIM))
        return 0;
    for (j = 0; j < n; j++)
        if (!(lower[j] >= -box && upper[j] <= box))
            return 0;
    return 1;
}

/*
 * Fills tb, eval's term bounds, for ackley (6), rastrigin (7) or schwefel
 * (8), and leaves it alone for other functions: for schwefel a bound on
 * x * sin(sqrt(fabs(x))) over each bucket of [-500, 500], for the other two
 * a bound on cos(TWO_PI * x) over each bucket of frac(x). Each entry is the
 * libm value at the bucket's midpoint, plus a Lipschitz constant times half
 * the bucket's width widened by 1e-6, plus 1e-9, capped at a bound that
 * holds everywhere. Bucket edges and midpoints are exact doubles.
 */
static void fill_bounds(int fid, double *tb)
{
    const double half = 500.0 / SCHWEFEL_BUCKETS;
    double mid, m, v;
    int k;

    if (fid == 8) {
        for (k = 0; k < SCHWEFEL_BUCKETS; k++) {
            mid = -500.0 + (2 * k + 1) * half;
            m = fabs(mid) + half + 1e-6; /* the widened bucket's largest |x| */
            v = mid * sin(sqrt(fabs(mid)))
                + (1.0 + sqrt(m) / 2.0) * (half + 1e-6) + 1e-9;
            v = v < m ? v : m;
            tb[k] = v < SCHWEFEL_TERM ? v : SCHWEFEL_TERM;
        }
    } else if (fid == 6 || fid == 7) {
        for (k = 0; k < COS_BUCKETS; k++) {
            mid = (k + 0.5) / COS_BUCKETS;
            v = cos(TWO_PI * mid) + TWO_PI * (0.5 / COS_BUCKETS + 1e-6) + 1e-9;
            tb[k] = v < 1.0 ? v : 1.0;
        }
    }
}

/* schwefel's entry for x in [-500, 500], with no libm call; the clamp puts
   x = 500 in the last bucket */
static ALWAYS_INLINE double schwefel_bound(const double *tb, double x)
{
    int k = (int)((x + 500.0) * (SCHWEFEL_BUCKETS / 1000.0));

    return tb[k < SCHWEFEL_BUCKETS ? k : SCHWEFEL_BUCKETS - 1];
}

/* the cosine's entry for |x| <= COS_BOX: x + 2^20 is positive, so the cast
   floors it, and the mask keeps the bucket of its fractional part */
static ALWAYS_INLINE double cos_bound(const double *tb, double x)
{
    return tb[(int64_t)((x + 0x1p20) * COS_BUCKETS) & (COS_BUCKETS - 1)];
}

/*
 * The objective of function fid (ids follow benchmarks.FUNCTION_NAMES
 * order) at x, with w as filled by fill_table.
 *
 * With check set, griewank (4), ackley (6), rastrigin (7), schwefel (8),
 * easom (9) and branin (11) return fmax instead once a lower bound on their
 * value reaches fmax (see the header). check may be set only where
 * bound_applies holds for a box that contains x and fill_bounds filled tb
 * for fid; ackley and schwefel then overwrite w (n doubles, which they do
 * not read otherwise) with suffix sums of term bounds. Every stop test and
 * everything it alone needs sits under check, so a value that is not
 * stopped is the objective, and with check off tb and fmax are not read.
 */
static ALWAYS_INLINE double eval(int fid, int64_t n, const double *x,
                                 double *w, const double *tb, double fmax,
                                 int check)
{
    double s = 0.0, s2 = 0.0, p = 1.0, rest = 0.0, lim = 0.0;
    double x1, x2, a, b, t, t1, t2, u, v, d1, d2, xi;
    int64_t i;

    switch (fid) {
    case 0: /* sphere */
        return bowl(0, n, x);
    case 1: /* cigar */
        return bowl(1, n, x);
    case 2: /* ellipse */
        for (i = 0; i < n; i++)
            s += w[i] * (x[i] * x[i]);
        return s;
    case 3: /* tablet */
        return bowl(3, n, x);
    case 4: /* griewank */
        for (i = 0; i < n; i++)
            s += x[i] * x[i];
        s = s / 4000.0;
        for (i = 0; i < n; i++) {
            if (check && s - fabs(p) + 1.0 >= fmax)
                return fmax;
            p *= cos(x[i] / w[i]);
        }
        return s - p + 1.0;
    case 5: /* rosenbrock */
        return bowl(5, n, x);
    case 6: /* ackley */
        for (i = 0; i < n; i++)
            s += x[i] * x[i];
        a = -20.0 * exp(-0.2 * sqrt(s / (double)n));
        if (check) {
            if (a - 2.72 + 20.0 + E >= fmax)
                return fmax;
            for (i = n - 1; i >= 0; i--) {
                rest += cos_bound(tb, x[i]);
                w[i] = rest;
            }
            lim = (double)n * (log(a + 20.0 + E - fmax - 1e-9) - 1e-9);
        }
        for (i = 0; i < n; i++) {
            if (check && s2 + w[i] <= lim)
                return fmax;
            s2 += cos(TWO_PI * x[i]);
        }
        return a - exp(s2 / (double)n) + 20.0 + E;
    case 7: /* rastrigin */
        if (check) {
            for (i = 0; i < n; i++) {
                xi = x[i];
                s += xi * xi - 10.0 * cos_bound(tb, xi);
            }
            if (10.0 * (double)n + s >= fmax)
                return fmax;
            s = 0.0;
        }
        for (i = 0; i < n; i++) {
            xi = x[i];
            s += xi * xi - 10.0 * cos(TWO_PI * xi);
        }
        return 10.0 * (double)n + s;
    case 8: /* schwefel */
        if (check) {
            for (i = n - 1; i >= 0; i--) {
                rest += schwefel_bound(tb, x[i]);
                w[i] = rest;
            }
            lim = 418.9829 * (double)n - fmax - 1e-10 * (double)n * (double)n;
        }
        for (i = 0; i < n; i++) {
            if (check && s + w[i] <= lim)
                return fmax;
            xi = x[i];
            s += xi * sin(sqrt(fabs(xi)));
        }
        return 418.9829 * (double)n - s;
    case 9: /* easom */
        d1 = x[0] - PI;
        d2 = x[1] - PI;
        a = exp(-(d1 * d1 + d2 * d2));
        if (check && -a >= fmax)
            return fmax;
        return -cos(x[0]) * cos(x[1]) * a;
    case 10: /* sixhumpcamel */
        x1 = x[0];
        x2 = x[1];
        a = x1 * x1;
        b = x2 * x2;
        return (4.0 - 2.1 * a + a * a / 3.0) * a + x1 * x2 + (-4.0 + 4.0 * b) * b;
    case 11: /* branin */
        t = x[1] - BRANIN_B * (x[0] * x[0]) + BRANIN_C * x[0] - 6.0;
        if (check && t * t + 10.0 * (1.0 - BRANIN_T) * (-1.0) + 10.0 >= fmax)
            return fmax;
        return t * t + 10.0 * (1.0 - BRANIN_T) * cos(x[0]) + 10.0;
    case 12: /* goldsteinprice */
        x1 = x[0];
        x2 = x[1];
        u = x1 + x2 + 1.0;
        a = 19.0 - 14.0 * x1 + 3.0 * (x1 * x1) - 14.0 * x2 + 6.0 * (x1 * x2)
            + 3.0 * (x2 * x2);
        v = 2.0 * x1 - 3.0 * x2;
        b = 18.0 - 32.0 * x1 + 12.0 * (x1 * x1) + 48.0 * x2 - 36.0 * (x1 * x2)
            + 27.0 * (x2 * x2);
        return (1.0 + (u * u) * a) * (30.0 + (v * v) * b);
    default: /* martingaddy (fid == 13) */
        t1 = x[0] - x[1];
        t2 = (x[0] + x[1] - 10.0) / 3.0;
        return t1 * t1 + t2 * t2;
    }
}

typedef struct {
    double obj;
    size_t idx;
} sort_item;

/* a before b: lower objective, ties to earlier creation. ppa_run sorts no
   nan key, so this is core.select_survivors' rank, which puts nan last. */
static ALWAYS_INLINE int item_before(sort_item a, sort_item b)
{
    return a.obj < b.obj || (a.obj == b.obj && a.idx < b.idx);
}

/*
 * Shell sort by item_before, with Knuth's gaps 1, 4, 13, 40, ...: on the
 * few items a generation usually sorts it is an insertion sort (a plain one
 * below six items) with no call per comparison, and the gaps keep a large
 * population from costing quadratic time. The order is total, so the result
 * is the one any correct sort gives.
 */
static ALWAYS_INLINE void sort_items(sort_item *v, size_t n)
{
    size_t gap = 1, i, k;
    sort_item t;

    while (gap < n / 3)
        gap = 3 * gap + 1;
    for (; gap > 0; gap /= 3) {
        for (i = gap; i < n; i++) {
            t = v[i];
            for (k = i; k >= gap && item_before(t, v[k - gap]); k -= gap)
                v[k] = v[k - gap];
            v[k] = t;
        }
    }
}

/* rows * cols elements of elem bytes, or NULL if that overflows size_t; an
   empty array gets one byte, since malloc(0) may return NULL */
static void *alloc_array(uint64_t rows, uint64_t cols, size_t elem)
{
    if (cols != 0 && rows > SIZE_MAX / cols)
        return NULL;
    if (rows * cols > SIZE_MAX / elem)
        return NULL;
    return malloc(rows * cols == 0 ? 1 : (size_t)(rows * cols) * elem);
}

/* one trajectory point: evaluation index and best value so far */
typedef struct {
    int64_t evals;
    double value;
} ppa_step;

typedef struct {
    ppa_step *steps;
    size_t len, cap;
} trajectory_t;

static int trajectory_push(trajectory_t *t, int64_t evals, double value)
{
    if (t->len == t->cap) {
        size_t cap = t->cap ? 2 * t->cap : 64;
        ppa_step *grown;
        if (cap > SIZE_MAX / sizeof(ppa_step))
            return 0;
        grown = realloc(t->steps, cap * sizeof(ppa_step));
        if (grown == NULL)
            return 0;
        t->steps = grown;
        t->cap = cap;
    }
    t->steps[t->len].evals = evals;
    t->steps[t->len].value = value;
    t->len++;
    return 1;
}

void ppa_rng_u64(uint64_t seed, size_t n, uint64_t *out)
{
    rng_t rng;
    size_t i;
    rng_seed(&rng, seed);
    for (i = 0; i < n; i++)
        out[i] = rng_u64(&rng);
}

void ppa_rng_uniform(uint64_t seed, size_t n, double *out)
{
    rng_t rng;
    size_t i;
    rng_seed(&rng, seed);
    for (i = 0; i < n; i++)
        out[i] = rng_uniform(&rng);
}

/* the exported entry to eval with check off, for the parity tests; table
   is n doubles of scratch for the constants, filled here as ppa_run fills
   its own */
double ppa_eval(int fid, int64_t n, const double *x, double *table)
{
    fill_table(fid, n, table);
    return eval(fid, n, x, table, NULL, 0.0, 0);
}

/* what ppa_run gives an offspring at x when the worst parent's value is
   fmax, for the tests: eval with check on where bound_applies to the box
   [x, x], with the tables ppa_run fills. table is n doubles of scratch, as
   for ppa_eval. */
double ppa_bound(int fid, int64_t n, const double *x, double fmax,
                 double *table)
{
    double tb[SCHWEFEL_BUCKETS];
    int check = bound_applies(fid, n, x, x);

    fill_table(fid, n, table);
    if (check)
        fill_bounds(fid, tb);
    return eval(fid, n, x, table, tb, fmax, check);
}

void ppa_free(void *p)
{
    free(p);
}

/* core.mutate for one coordinate of parent value p in the box [lo, hi] of
   width w, where om = 1 - fitness. The clamp has no branch (minsd and
   maxsd) and gives core.mutate's if/else if result, nan included, because
   _kernel.run ensures lo < hi. */
static ALWAYS_INLINE double mutate_coord(rng_t *rng, double p, double lo,
                                         double hi, double w, double om)
{
    double xx = p + w * (2.0 * (rng_uniform(rng) - 0.5) * om);

    xx = xx < lo ? lo : xx;
    return xx > hi ? hi : xx;
}

/*
 * One child of a bowl, made coordinate by coordinate while its terms are
 * summed as in bowl; it stops once the running value reaches fmax (see the
 * header) and takes the draws of the coordinates it skips. A stop is tried
 * from the second coordinate on, while two or more are left: skipping one
 * saves less than a mispredicted branch costs, and the first coordinate
 * alone (cigar's x0^2) stopped offspring too erratically to pay at n = 3
 * and 4. Returns the objective, or the running value (>= fmax) at which the
 * child stopped; a nan is never >= fmax, so a child that meets one is made
 * and evaluated in full.
 */
static ALWAYS_INLINE double bowl_child(int fid, rng_t *rng, size_t d,
                                       const double *parent, double *child,
                                       const double *lower,
                                       const double *upper,
                                       const double *width, double om,
                                       double fmax)
{
    double x, xp, x0, s, value = 0.0;
    size_t j;

    x0 = mutate_coord(rng, parent[0], lower[0], upper[0], width[0], om);
    child[0] = x0;
    s = bowl_start(fid, x0);
    xp = x0;
    for (j = 1; j < d; j++) {
        x = mutate_coord(rng, parent[j], lower[j], upper[j], width[j], om);
        child[j] = x;
        s += bowl_term(fid, xp, x);
        xp = x;
        value = bowl_value(fid, x0, s);
        if (j + 2 < d && value >= fmax) {
            while (++j < d)
                rng_u64(rng);
            break;
        }
    }
    return value;
}

/*
 * One run; same semantics and draw order as core.run_ppa. The steepness is
 * evals / factor + 1, so factor = +inf runs vanilla PPA.
 *
 * Fills *best_value, best_point (dim doubles, written only when some value
 * beat +inf) and *evals_used, and hands over the trajectory in
 * *trajectory / *trajectory_len, which the caller releases with ppa_free.
 * Returns PPA_OK, PPA_NONFINITE with the offending objective value in
 * *bad_value, PPA_BADSTEEP with the offending steepness in *bad_value, or
 * PPA_NOMEM; on an error *trajectory is NULL.
 */
int ppa_run(int fid, int64_t dim, const double *lower, const double *upper,
            int64_t pop_size, int64_t n_max, int64_t budget, double factor,
            uint64_t seed, double *best_value, double *best_point,
            int64_t *evals_used, ppa_step **trajectory,
            int64_t *trajectory_len, double *bad_value)
{
    rng_t rng;
    trajectory_t traj = {NULL, 0, 0};
    uint64_t pop = (uint64_t)pop_size, d = (uint64_t)dim;
    uint64_t left, slots;
    double *pos = NULL;    /* pop x dim: the parents' rows, in any order */
    double **row = NULL;   /* pop: parent i's row in pos */
    double **newrow = NULL; /* pop: the survivors' rows, then swapped with row */
    double *obj = NULL;    /* pop */
    double *newobj = NULL; /* pop */
    double *kidpos = NULL; /* slots x dim: this generation's offspring */
    double *kidobj = NULL; /* slots */
    double *fits = NULL;   /* pop: normalized objective, then fitness */
    double *width = NULL;  /* dim: upper - lower */
    double *table = NULL;  /* dim: fill_table's constants, or the suffix
                              sums of eval's stop */
    double *bounds = NULL; /* SCHWEFEL_BUCKETS: eval's term bounds */
    sort_item *items = NULL; /* pop + slots: parents, then candidates */
    int64_t evals = 0, cnt, k;
    double best = INFINITY;
    double s, fmin, fmax, span, val, u, r, om, fi, cnt_d, worst, **swap;
    double fits_s = 0.0; /* the steepness fits[] was computed at */
    double *swapobj, *dst;
    const double *parent, *kid;
    size_t i, j, n_off, end, a, b, src;
    /* parents_kept: the last generation made no survivor, so the parents
       and their order are as fits[] was computed for */
    int parents_sorted = 0, parents_kept = 0, status = PPA_OK;
    /* the bowl whose offspring may stop early, else -1; below n = 4
       bowl_child would never stop (see there) */
    int stop_fid = d > 3 && (fid == 0 || fid == 1 || fid == 3 || fid == 5)
                       ? fid
                       : -1;
    /* whether the offspring of griewank, ackley, rastrigin, schwefel,
       easom or branin may stop on a lower bound in eval */
    int check = bound_applies(fid, dim, lower, upper);

    rng_seed(&rng, seed);

    /* A generation makes at most pop_size * n_max offspring, and never more
       than the budget left after the initial population. */
    left = budget > pop_size ? (uint64_t)(budget - pop_size) : 0;
    slots = (uint64_t)n_max > left / pop ? left : pop * (uint64_t)n_max;

    pos = alloc_array(pop, d, sizeof(double));
    row = alloc_array(pop, 1, sizeof(double *));
    newrow = alloc_array(pop, 1, sizeof(double *));
    obj = alloc_array(pop, 1, sizeof(double));
    items = alloc_array(pop + slots, 1, sizeof(sort_item));
    newobj = alloc_array(pop, 1, sizeof(double));
    kidpos = alloc_array(slots, d, sizeof(double));
    kidobj = alloc_array(slots, 1, sizeof(double));
    fits = alloc_array(pop, 1, sizeof(double));
    width = alloc_array(d, 1, sizeof(double));
    table = alloc_array(d, 1, sizeof(double));
    bounds = alloc_array(SCHWEFEL_BUCKETS, 1, sizeof(double));
    if (pos == NULL || row == NULL || newrow == NULL || obj == NULL
        || newobj == NULL || items == NULL || kidpos == NULL || kidobj == NULL
        || fits == NULL || width == NULL || table == NULL || bounds == NULL) {
        status = PPA_NOMEM;
        goto done;
    }
    for (j = 0; j < d; j++)
        width[j] = upper[j] - lower[j];
    fill_table(fid, dim, table);
    if (check)
        fill_bounds(fid, bounds);

    /* uniform initialization, evaluating in creation order */
    for (i = 0; i < pop; i++) {
        row[i] = &pos[i * d];
        for (j = 0; j < d; j++) {
            u = rng_uniform(&rng);
            row[i][j] = lower[j] + u * width[j];
        }
        val = eval(fid, dim, row[i], table, NULL, 0.0, 0);
        evals++;
        obj[i] = val;
        if (val < best) {
            best = val;
            for (j = 0; j < d; j++)
                best_point[j] = row[i][j];
            if (!trajectory_push(&traj, evals, val)) {
                status = PPA_NOMEM;
                goto done;
            }
        }
    }

    while (evals < budget) {
        /* steepness from completed evaluations at generation start; with
           factor = +inf, evals / factor is +0.0 and s is exactly 1.0 */
        s = (double)evals / factor + 1.0;

        if (parents_kept && s == fits_s) {
            /* the same parents, sorted, at the same steepness (always so
               under vanilla PPA): fits[] already holds their fitness */
            fmax = obj[pop - 1];
        } else {
            fmin = obj[0];
            fmax = obj[0];
            for (i = 0; i < pop; i++) {
                if (!isfinite(obj[i])) {
                    *bad_value = obj[i];
                    status = PPA_NONFINITE;
                    goto done;
                }
                if (obj[i] < fmin)
                    fmin = obj[i];
                if (obj[i] > fmax)
                    fmax = obj[i];
            }
            if (fmax == fmin) {
                for (i = 0; i < pop; i++)
                    fits[i] = 0.5;
            } else {
                span = fmax - fmin;
                for (i = 0; i < pop; i++)
                    fits[i] = (fmax - obj[i]) / span;
            }
            for (i = 0; i < pop; i++) {
                fi = 0.5 * (tanh(4.0 * s * fits[i] - 2.0 * s) + 1.0);
                /* PpaConfig rejects a schedule whose 4 * s overflows; this
                   keeps a nan away from the integer cast below whatever the
                   caller */
                if (isnan(fi)) {
                    *bad_value = s;
                    status = PPA_BADSTEEP;
                    goto done;
                }
                fits[i] = fi;
            }
            fits_s = s;
        }

        n_off = 0;
        for (i = 0; i < pop; i++) {
            if (evals >= budget)
                break;
            r = rng_uniform(&rng);
            fi = fits[i];
            cnt_d = ceil((double)n_max * fi * r);
            if (cnt_d < 1.0) {
                cnt = 1;
            } else {
                cnt = (int64_t)cnt_d;
                if (cnt > n_max)
                    cnt = n_max;
            }
            parent = row[i];
            om = 1.0 - fi;
            for (k = 0; k < cnt; k++) {
                double *child;
                if (evals >= budget)
                    break;
                child = &kidpos[n_off * d];
                if (stop_fid < 0) {
                    for (j = 0; j < d; j++)
                        child[j] = mutate_coord(&rng, parent[j], lower[j],
                                                upper[j], width[j], om);
                    val = eval(fid, dim, child, table, bounds, fmax, check);
                } else if (stop_fid == 0) {
                    val = bowl_child(0, &rng, d, parent, child, lower, upper,
                                     width, om, fmax);
                } else if (stop_fid == 1) {
                    val = bowl_child(1, &rng, d, parent, child, lower, upper,
                                     width, om, fmax);
                } else if (stop_fid == 3) {
                    val = bowl_child(3, &rng, d, parent, child, lower, upper,
                                     width, om, fmax);
                } else {
                    val = bowl_child(5, &rng, d, parent, child, lower, upper,
                                     width, om, fmax);
                }
                evals++;
                kidobj[n_off] = val;
                if (val < best) {
                    best = val;
                    for (j = 0; j < d; j++)
                        best_point[j] = child[j];
                    if (!trajectory_push(&traj, evals, val)) {
                        status = PPA_NOMEM;
                        goto done;
                    }
                }
                n_off++;
            }
        }

        /*
         * Survivors: the pop_size lowest (objective, creation index) pairs,
         * the same set and order as the full sort in core.select_survivors.
         * After the first selection the parents already sit in that order,
         * so only the first generation sorts them. An offspring that does
         * not beat the worst parent can never survive (a tie goes to the
         * parent, created earlier; nan beats nothing), so only the few
         * below it are sorted, then merged in with parents first on ties.
         * No key here is nan: the parents passed the check above and a
         * candidate is below the worst of them (it may be -inf). Parent i
         * has creation index i, offspring k has pop + k.
         *
         * A surviving parent keeps its row; only its pointer moves. As many
         * parents drop out as offspring survive, and they are the worst
         * ones, so the m-th surviving offspring is copied into the row of
         * the m-th worst parent, which the merge never takes.
         *
         * Once sorted, the worst parent is the last. When no offspring
         * beats it, the merge would give back the parents in their order,
         * so it is skipped, and the next generation may keep their fitness.
         */
        if (parents_sorted) {
            worst = obj[pop - 1];
            for (i = 0; i < n_off && !(kidobj[i] < worst); i++)
                ;
            parents_kept = i == n_off;
        }
        if (!parents_kept) {
            for (i = 0; i < pop; i++) {
                items[i].obj = obj[i];
                items[i].idx = i;
            }
            if (!parents_sorted) {
                sort_items(items, pop);
                parents_sorted = 1;
            }
            worst = items[pop - 1].obj;
            end = pop;
            for (i = 0; i < n_off; i++) {
                if (kidobj[i] < worst) {
                    items[end].obj = kidobj[i];
                    items[end].idx = pop + i;
                    end++;
                }
            }
            sort_items(items + pop, end - pop);
            a = 0;
            b = pop;
            for (i = 0; i < pop; i++) {
                if (b == end || items[a].obj <= items[b].obj) {
                    src = items[a++].idx;
                    newobj[i] = obj[src];
                    newrow[i] = row[src];
                } else {
                    src = items[b].idx - pop;
                    dst = row[items[pop - 1 - (b - pop)].idx];
                    b++;
                    kid = &kidpos[src * d];
                    for (j = 0; j < d; j++)
                        dst[j] = kid[j];
                    newobj[i] = kidobj[src];
                    newrow[i] = dst;
                }
            }
            swap = row;
            row = newrow;
            newrow = swap;
            swapobj = obj;
            obj = newobj;
            newobj = swapobj;
        }
    }

    if (traj.len == 0 || traj.steps[traj.len - 1].evals != evals) {
        if (!trajectory_push(&traj, evals, best)) {
            status = PPA_NOMEM;
            goto done;
        }
    }

done:
    free(pos);
    free(row);
    free(newrow);
    free(obj);
    free(items);
    free(newobj);
    free(kidpos);
    free(kidobj);
    free(fits);
    free(width);
    free(table);
    free(bounds);
    if (status != PPA_OK) {
        free(traj.steps);
        traj.steps = NULL;
        traj.len = 0;
    }
    *best_value = best;
    *evals_used = evals;
    *trajectory = traj.steps;
    *trajectory_len = (int64_t)traj.len;
    return status;
}
