/*
 * Runs ppa_run on the cases read from stdin, one per line:
 *
 *     fid dim lower upper pop_size n_max budget factor seed
 *
 * with the box [lower, upper] in every coordinate and factor inf for vanilla
 * (scanf parses "inf"), and prints one line per case: status, evaluations
 * used, best value as a hex float and trajectory length. It includes the C
 * core itself, so it declares nothing of its own that could drift from
 * _ppa.c; build it alone, with the package directory on the include path.
 * tests/test_parity.py builds it under the address and undefined-behaviour
 * sanitizers and compares the lines with _kernel.run.
 */
#include <inttypes.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

#include "_ppa.c"

int main(void)
{
    int fid;
    int64_t dim, pop, n_max, budget, i;
    double lo, hi, factor;
    uint64_t seed;

    while (scanf("%d %" SCNd64 " %lf %lf %" SCNd64 " %" SCNd64 " %" SCNd64
                 " %lf %" SCNu64,
                 &fid, &dim, &lo, &hi, &pop, &n_max, &budget, &factor,
                 &seed) == 9) {
        double *lower = malloc((size_t)dim * sizeof(double));
        double *upper = malloc((size_t)dim * sizeof(double));
        double *point = malloc((size_t)dim * sizeof(double));
        double best = 0.0, bad = 0.0;
        int64_t evals = 0, len = 0;
        ppa_step *steps = NULL;
        int status;

        if (lower == NULL || upper == NULL || point == NULL)
            return 2;
        for (i = 0; i < dim; i++) {
            lower[i] = lo;
            upper[i] = hi;
        }
        status = ppa_run(fid, dim, lower, upper, pop, n_max, budget, factor,
                         seed, &best, point, &evals, &steps, &len, &bad);
        printf("%d %" PRId64 " %a %" PRId64 "\n", status, evals, best, len);
        ppa_free(steps);
        free(lower);
        free(upper);
        free(point);
    }
    return 0;
}
