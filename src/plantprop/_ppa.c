/*
 * Compiled engine of plantprop: xoshiro256++ stream, objective dispatch and
 * the plant propagation loop, in plain C99 behind a flat ABI for ctypes.
 *
 * This file computes every value of rng.py, benchmarks.py and core.py as the
 * same double, with the same draws in the same order and the same libm
 * calls, so a run here is bit-identical to the pure-Python engine. Mostly it
 * takes the same IEEE double operations in the same order; where it takes
 * another route (the per-run tables and the shortcuts below, and the
 * mutation step in mutate_coord), the comment there proves that every
 * result is the same. Keep the four files in lockstep when touching any
 * formula.
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
 * - Generations with no survivor. A child is kept for selection only when
 *   it is made below the worst parent; any other child is dropped as soon
 *   as it is evaluated, so selection never looks at it. From the second
 *   generation on, the parents sit sorted, and when a generation keeps no
 *   child, selection would give the parents back in their order, so the
 *   parents are kept: the merge and the buffer swap are skipped. If the
 *   next generation then has the same steepness (always under vanilla PPA,
 *   where s is 1.0), fits[] still holds the parents' fitness, and min/max,
 *   normalization and tanh are skipped as well. The first generation, whose
 *   parents are not sorted yet, takes the full path. At n = 2 over the 14
 *   functions, 85%, 59%, 31%, 5% and 60% of generations make no survivor
 *   under factors 100, 500, 1000, 2000 and vanilla.
 * - Member records. A parent or a kept child is one record of its
 *   objective and a pointer to its row, so a surviving parent's row stays
 *   where it is, and selection copies only the surviving offspring, each
 *   into the row of a parent that dropped out.
 *
 * Build without -ffast-math and with -ffp-contract=off: IEEE semantics are
 * part of the contract, and a fused multiply-add rounds once where Python
 * rounds twice. _kernel.py compiles and loads it. The core trusts its
 * arguments (see ppa_run), and each is checked once, in Python: Bounds
 * checks every lower[j] < upper[j], BenchmarkFunction the bounds' length,
 * PpaConfig and SteepeningSchedule the counts and the steepness, and
 * _kernel.run the function id, the dimension and the counts' int64 range.
 * Sizes derived here are checked here.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    PPA_OK = 0,
    PPA_NONFINITE = 1, /* a parent's objective is inf or nan; see *bad_value */
    PPA_NOMEM = 2,     /* a buffer size overflows or an allocation failed */
    PPA_RANGE = 3      /* the parents' max - min objective overflows */
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

/* a parent or a kept child: its objective and its row */
typedef struct {
    double obj;
    double *x;
} member;

/* a before b: lower objective, ties to the lower row address. ppa_run sorts
   only members whose rows lie in one array, filled in creation order (the
   initial population in pos, or one generation's candidates in kidpos), so
   the address order is the creation order. ppa_run sorts no nan key, so
   this is core.select_survivors' rank, which puts nan last. */
static ALWAYS_INLINE int item_before(member a, member b)
{
    return a.obj < b.obj || (a.obj == b.obj && a.x < b.x);
}

/*
 * Shell sort by item_before, with Knuth's gaps 1, 4, 13, 40, ...: on the
 * few members a generation usually sorts it is an insertion sort (a plain
 * one below six members) with no call per comparison, and the gaps keep a
 * large population from costing quadratic time. The order is total, so the
 * result is the one any correct sort gives.
 */
static ALWAYS_INLINE void sort_members(member *v, size_t n)
{
    size_t gap = 1, i, k;
    member t;

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

/* the exported entry to eval, for the tests: what ppa_run gives an
   offspring at x when the worst parent's value is fmax, with check on where
   bound_applies to the box [x, x] and the tables ppa_run fills. fmax = +inf
   gives the objective at every finite x: a stop there returns +inf only
   where the objective is +inf as well. table is n doubles of scratch. */
double ppa_eval(int fid, int64_t n, const double *x, double fmax,
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

/*
 * core.mutate for one coordinate of parent value p in the box [lo, hi] of
 * width w, where om = (1 - fitness) * 2^-52. The clamp has no branch (minsd
 * and maxsd) and gives core.mutate's if/else if result, nan included,
 * because Bounds ensures lo < hi.
 *
 * The step is core.mutate's 2 * (r - 0.5) * (1 - f), centred in integers.
 * With k = u64 >> 11 < 2^53, r = k 2^-53, and r - 0.5 and the doubling are
 * exact (Sterbenz from r = 0.25 on; below it, r - 0.5 is a multiple of
 * 2^-53 in [-0.5, -0.25]). So core forms (k - 2^52) 2^-52 exactly and rounds
 * once, when it multiplies by 1 - f. Here c = k - 2^52 converts exactly, and
 * om is exact too: f is 0.5 (t + 1), t the tanh, with t + 1 rounded in
 * [0, 2], so 1 - f is 0 or at least 2^-53 (a multiple of 2^-53 from
 * f = 0.5 on, above 0.5 below it), and neither om nor c * om is
 * subnormal. So c * om rounds the
 * same real number once, and the zeros match as well: k = 2^52 gives +0 on
 * both sides, and f = 1 gives -0 for k < 2^52 on both. This takes three of
 * the nine float operations per coordinate off a loop bound by its float
 * ports.
 */
static ALWAYS_INLINE double mutate_coord(rng_t *rng, double p, double lo,
                                         double hi, double w, double om)
{
    int64_t c = (int64_t)(rng_u64(rng) >> 11) - (INT64_C(1) << 52);
    double xx = p + w * ((double)c * om);

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
 * The caller's contract: fid names a formula that takes dim coordinates;
 * lower and upper hold dim entries with lower[j] < upper[j]; pop_size and
 * n_max are >= 1 and budget >= 0; factor is > 0 (+inf included) and
 * 4 * (budget / factor + 1) is finite. Every generation starts with
 * evals < budget and rounding is monotone, so 4 * s stays finite; with the
 * objectives' range checked below, every normalized value is in [0, 1],
 * and no fitness is nan.
 *
 * Fills best_point (dim doubles, written only when some value beat +inf)
 * and hands over the trajectory in *trajectory / *trajectory_len, which the
 * caller releases with ppa_free. Its last step is the evaluations used and
 * the best value.
 * Returns PPA_OK, PPA_NONFINITE with the offending objective value in
 * *bad_value, PPA_RANGE, or PPA_NOMEM; on an error *trajectory is NULL.
 */
int ppa_run(int fid, int64_t dim, const double *lower, const double *upper,
            int64_t pop_size, int64_t n_max, int64_t budget, double factor,
            uint64_t seed, double *best_point, ppa_step **trajectory,
            int64_t *trajectory_len, double *bad_value)
{
    rng_t rng;
    trajectory_t traj = {NULL, 0, 0};
    uint64_t pop = (uint64_t)pop_size, d = (uint64_t)dim;
    uint64_t left, slots;
    double *pos = NULL;    /* pop x dim: the parents' rows, in any order */
    double *kidpos = NULL; /* slots x dim: this generation's candidates */
    member *par = NULL;    /* pop: the parents, rows in pos */
    member *next = NULL;   /* pop: the survivors, then swapped with par */
    member *cand = NULL;   /* slots: the kept offspring, rows in kidpos */
    double *fits = NULL;   /* pop: normalized objective, then fitness */
    double *width = NULL;  /* dim: upper - lower */
    double *table = NULL;  /* dim: fill_table's constants, or the suffix
                              sums of eval's stop */
    double bounds[SCHWEFEL_BUCKETS]; /* eval's term bounds, when check */
    int64_t evals = 0, cnt, k;
    double best = INFINITY;
    double s, fmin, fmax, span, val, u, r, om, fi, cnt_d, *dst;
    double fits_s = 0.0; /* the steepness fits[] was computed at */
    const double *parent;
    member *swap;
    size_t i, j, n_off, a, b;
    /* parents_kept: the last generation kept no child, so the parents
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
    kidpos = alloc_array(slots, d, sizeof(double));
    par = alloc_array(pop, 1, sizeof(member));
    next = alloc_array(pop, 1, sizeof(member));
    cand = alloc_array(slots, 1, sizeof(member));
    fits = alloc_array(pop, 1, sizeof(double));
    width = alloc_array(d, 1, sizeof(double));
    table = alloc_array(d, 1, sizeof(double));
    if (pos == NULL || kidpos == NULL || par == NULL || next == NULL
        || cand == NULL || fits == NULL || width == NULL || table == NULL) {
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
        dst = &pos[i * d];
        for (j = 0; j < d; j++) {
            u = rng_uniform(&rng);
            dst[j] = lower[j] + u * width[j];
        }
        val = eval(fid, dim, dst, table, NULL, 0.0, 0);
        evals++;
        par[i].obj = val;
        par[i].x = dst;
        if (val < best) {
            best = val;
            memcpy(best_point, dst, d * sizeof(double));
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
            fmax = par[pop - 1].obj;
        } else {
            fmin = par[0].obj;
            fmax = par[0].obj;
            for (i = 0; i < pop; i++) {
                val = par[i].obj;
                if (!isfinite(val)) {
                    *bad_value = val;
                    status = PPA_NONFINITE;
                    goto done;
                }
                if (val < fmin)
                    fmin = val;
                if (val > fmax)
                    fmax = val;
            }
            if (fmax == fmin) {
                for (i = 0; i < pop; i++)
                    fits[i] = 0.5;
            } else {
                /* core.normalize's check: each quotient is then in [0, 1] */
                span = fmax - fmin;
                if (!isfinite(span)) {
                    status = PPA_RANGE;
                    goto done;
                }
                for (i = 0; i < pop; i++)
                    fits[i] = (fmax - par[i].obj) / span;
            }
            for (i = 0; i < pop; i++)
                fits[i] = 0.5 * (tanh(4.0 * s * fits[i] - 2.0 * s) + 1.0);
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
            parent = par[i].x;
            om = (1.0 - fi) * 0x1.0p-52; /* exact: see mutate_coord */
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
                if (!(val < fmax))
                    continue; /* cannot survive: the next child takes its row */
                cand[n_off].obj = val;
                cand[n_off].x = child;
                n_off++;
                if (val < best) {
                    best = val;
                    memcpy(best_point, child, d * sizeof(double));
                    if (!trajectory_push(&traj, evals, val)) {
                        status = PPA_NOMEM;
                        goto done;
                    }
                }
            }
        }

        /*
         * Survivors: the pop_size lowest members by item_before, the same
         * set and order as the full sort in core.select_survivors. After
         * the first selection par already sits in that order, so only the
         * first generation sorts it, in place, while its rows still lie in
         * pos in creation order. An offspring that is not below fmax, the
         * worst parent's value, can never survive (a tie goes to the
         * parent, created earlier; nan beats nothing), so the offspring
         * loop keeps a child only when it is made below fmax: it goes into
         * cand[n_off] with kidpos row n_off, and any other child's row is
         * taken by the next one. Only these few candidates are sorted, and
         * their rows lie in kidpos in creation order. The merge then writes
         * the survivors into next, parents first on ties, and next is
         * swapped with par. No key here is nan: the parents passed the
         * check above and a candidate is below the worst of them (it may be
         * -inf).
         *
         * A surviving parent keeps its row; only its record moves. As many
         * parents drop out as offspring survive, and they are the worst
         * ones, so candidate b (counting from 0) is copied into the row of
         * par[pop - 1 - b], which the merge never takes.
         *
         * Once the parents are sorted, a generation that kept no candidate
         * would give them back in their order, so the merge is skipped, and
         * the next generation may keep their fitness.
         */
        parents_kept = parents_sorted && n_off == 0;
        if (!parents_kept) {
            if (!parents_sorted) {
                sort_members(par, pop);
                parents_sorted = 1;
            }
            sort_members(cand, n_off);
            a = 0;
            b = 0;
            for (i = 0; i < pop; i++) {
                if (b == n_off || par[a].obj <= cand[b].obj) {
                    next[i] = par[a++];
                } else {
                    /* pos and kidpos never overlap; gcc 12 does not turn
                       this copy into memcpy when written as a loop, and
                       selection then took 1.2-1.3 times as long at n = 30 */
                    dst = par[pop - 1 - b].x;
                    memcpy(dst, cand[b].x, d * sizeof(double));
                    next[i].obj = cand[b++].obj;
                    next[i].x = dst;
                }
            }
            swap = par;
            par = next;
            next = swap;
        }
    }

    /* the last step is (evals, best): one pushed at evals already holds best */
    if ((traj.len == 0 || traj.steps[traj.len - 1].evals != evals)
        && !trajectory_push(&traj, evals, best))
        status = PPA_NOMEM;

done:
    free(pos);
    free(kidpos);
    free(par);
    free(next);
    free(cand);
    free(fits);
    free(width);
    free(table);
    if (status != PPA_OK) {
        free(traj.steps);
        traj.steps = NULL;
        traj.len = 0;
    }
    *trajectory = traj.steps;
    *trajectory_len = (int64_t)traj.len;
    return status;
}
