/*
 * Runs ppa_run on the cases read from stdin, one per line:
 *
 *     fid dim lower upper pop_size n_max budget factor seed
 *
 * with the box [lower, upper] in every coordinate and factor inf for vanilla
 * (scanf parses "inf"), and prints one line per case: status, evaluations
 * used, best value as a hex float and trajectory length, the first two read
 * from the trajectory's last step (0 and 0x0p+0 when it is empty, as after
 * an error). It includes the C core itself, so it declares nothing of its
 * own that could drift from _ppa.c; build it alone, with the package
 * directory on the include path.
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
        double bad = 0.0;
        int64_t len = 0;
        ppa_step *steps = NULL;
        ppa_step last = {0, 0.0};
        int status;

        if (lower == NULL || upper == NULL || point == NULL)
            return 2;
        for (i = 0; i < dim; i++) {
            lower[i] = lo;
            upper[i] = hi;
        }
        status = ppa_run(fid, dim, lower, upper, pop, n_max, budget, factor,
                         seed, point, &steps, &len, &bad);
        if (len > 0)
            last = steps[len - 1];
        printf("%d %" PRId64 " %a %" PRId64 "\n", status, last.evals,
               last.value, len);
        ppa_free(steps);
        free(lower);
        free(upper);
        free(point);
    }
    return 0;
}
