/* All-sources Brandes betweenness with reach and ident attributes over one
 * component's CSR: the compiled form of ``kernels.brandes_python``.
 *
 * Every floating-point expression is the one ``kernels.single_source``
 * evaluates, in the same order, and every attribute factor is applied even
 * when it is 1.  The backward sweep keeps no predecessor lists: walking the
 * BFS order backwards, each vertex w pushes its dependency to the neighbors v
 * with dist[v] == dist[w] - 1, which are exactly its predecessors (Madduri
 * et al., IPDPS 2009).  A vertex receives its terms in the same order as from
 * the Python predecessor lists, so the scores match the Python loop's.
 *
 * Build: cc -O2 -shared -fPIC -ffp-contract=off.  Contracting a * b + c into
 * a fused multiply-add would round differently from Python.
 */
#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <time.h>

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* n vertices; the neighbors of v are targets[offsets[v] .. offsets[v + 1]),
 * every one in [0, n), and the adjacency is symmetric.  dist and order
 * (int32) and sigma and delta (double) are n-element workspaces.  Adds each
 * vertex's score to bc, and the forward and backward seconds to seconds[0]
 * and seconds[1]. */
void bcs_brandes(int64_t n, const int64_t *offsets, const int32_t *targets,
                 const double *reach, const double *ident,
                 int32_t *dist, int32_t *order, double *sigma, double *delta,
                 double *bc, double *seconds)
{
    for (int64_t v = 0; v < n; v++)
        dist[v] = -1;
    for (int32_t s = 0; s < n; s++) {
        double start = now();
        int64_t end = 1;
        order[0] = s;
        dist[s] = 0;
        sigma[s] = 1.0;
        delta[s] = reach[s] - 1.0;
        for (int64_t head = 0; head < end; head++) {
            int32_t v = order[head];
            int32_t dv1 = dist[v] + 1;
            /* a source forwards its sigma without the ident fan-out */
            double sv = v != s ? sigma[v] * ident[v] : sigma[v];
            for (int64_t a = offsets[v]; a < offsets[v + 1]; a++) {
                int32_t w = targets[a];
                if (dist[w] < 0) {
                    dist[w] = dv1;
                    sigma[w] = 0.0;
                    delta[w] = reach[w] - 1.0;
                    order[end++] = w;
                }
                if (dist[w] == dv1)
                    sigma[w] += sv;
            }
        }
        double mid = now();
        double mult = reach[s] * ident[s];
        for (int64_t idx = end - 1; idx > 0; idx--) { /* order[0] is s */
            int32_t w = order[idx];
            double dw = delta[w];
            double coef = ident[w] * (1.0 + dw) / sigma[w];
            int32_t up = dist[w] - 1;
            for (int64_t a = offsets[w]; a < offsets[w + 1]; a++) {
                int32_t v = targets[a];
                if (dist[v] == up)
                    delta[v] += sigma[v] * coef;
            }
            bc[w] += mult * dw;
            /* vertices swept so far read -1, which is no up here: every w
             * swept lies at distance >= 1 */
            dist[w] = -1;
        }
        dist[s] = -1;
        seconds[0] += mid - start;
        seconds[1] += now() - mid;
    }
}
