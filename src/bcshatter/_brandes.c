/* Compiled Brandes runs with reach and ident attributes, two entry points:
 *
 * - bcs_brandes, all sources over one component's CSR: the compiled form of
 *   ``kernels.brandes_python``;
 * - bcs_side_sweep, one compensation run per side vertex over the work
 *   graph: the compiled form of ``kernels.side_sweep_python``.
 *
 * Every floating-point expression is the one ``kernels.single_source`` and
 * ``kernels.side_bfs`` evaluate, in the same order, and every attribute
 * factor is applied even when it is 1.  Like ``single_source``, the forward
 * BFS records the predecessors of each vertex (Brandes, J. Math. Sociol.
 * 25(2), 2001): each v with sigma[w] += sigma[v] goes into w's bucket, and
 * the backward sweep pushes w's dependency along that bucket only.  A
 * vertex receives its terms from its successors in reverse BFS order, as
 * from the Python predecessor lists, so the scores match the Python loop's
 * for any rows, symmetric or not, repeated entries included.
 *
 * Build: cc -O2 -shared -fPIC -ffp-contract=off.  Contracting a * b + c into
 * a fused multiply-add would round differently from Python.
 */
#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <time.h>

/* dist of a vertex no run has reached, and of a vertex taken out of the
 * graph: the forward BFS neither discovers nor counts an ABSENT vertex, so
 * it is nobody's predecessor and acts as if deleted from every adjacency
 * row. */
#define UNSEEN (-1)
#define ABSENT (-2)

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Lays out the predecessor buckets and leaves them empty.  Bucket w is
 * preds[starts[w] .. starts[w + 1]), one slot per occurrence of w in
 * targets: a run records v in it once per occurrence of w in v's row at
 * most, so whatever the rows, no write leaves the bucket.  fill[w] is one
 * past the last predecessor recorded in it. */
static void empty_buckets(int64_t n, const int64_t *offsets, const int32_t *targets,
                          int64_t *starts, int64_t *fill)
{
    for (int64_t v = 0; v <= n; v++)
        starts[v] = 0;
    for (int64_t a = 0; a < offsets[n]; a++)
        starts[targets[a] + 1]++;
    for (int64_t v = 0; v < n; v++) {
        starts[v + 1] += starts[v];
        fill[v] = starts[v];
    }
}

/* The forward BFS from s, shared by both entry points: fills order, dist,
 * sigma and delta for every vertex s reaches, records each vertex's
 * predecessors in its bucket, and returns how many vertices s reaches
 * (order[0] is s).  Inlined into each caller, so the all-sources loop
 * compiles as it would without the side sweep.  The backward sweeps stay
 * two loops: what a swept vertex does with its dependency differs (one
 * score addition against amounts spread over its members plus the mass and
 * arc counts), and a shared loop would have to branch or call back per
 * vertex inside the all-sources kernel.  Each reads a swept vertex's bucket
 * and empties it again. */
static inline __attribute__((always_inline)) int64_t
forward(int32_t s, const int64_t *offsets, const int32_t *targets,
        const double *reach, const double *ident,
        int32_t *dist, int32_t *order, double *sigma, double *delta,
        int32_t *preds, int64_t *fill)
{
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
            if (dist[w] == UNSEEN) {
                dist[w] = dv1;
                sigma[w] = 0.0;
                delta[w] = reach[w] - 1.0;
                order[end++] = w;
            }
            if (dist[w] == dv1) {
                sigma[w] += sv;
                preds[fill[w]++] = v;
            }
        }
    }
    return end;
}

/* n vertices; the neighbors of v are targets[offsets[v] .. offsets[v + 1]),
 * every one in [0, n); the rows need not be symmetric and may repeat an
 * entry.  dist and order (int32) and sigma and delta (double) are n-element
 * workspaces, preds (int32) has offsets[n] slots and starts and fill
 * (int64) n + 1 and n.  Adds each vertex's score to bc, and the seconds of
 * the forward BFS, predecessor recording included, and of the backward
 * sweep to seconds[0] and seconds[1]. */
void bcs_brandes(int64_t n, const int64_t *offsets, const int32_t *targets,
                 const double *reach, const double *ident,
                 int32_t *dist, int32_t *order, double *sigma, double *delta,
                 int32_t *preds, int64_t *starts, int64_t *fill,
                 double *bc, double *seconds)
{
    empty_buckets(n, offsets, targets, starts, fill);
    for (int64_t v = 0; v < n; v++)
        dist[v] = UNSEEN;
    for (int32_t s = 0; s < n; s++) {
        double start = now();
        int64_t end = forward(s, offsets, targets, reach, ident, dist, order, sigma, delta, preds, fill);
        double mid = now();
        double mult = reach[s] * ident[s];
        for (int64_t idx = end - 1; idx > 0; idx--) { /* order[0] is s */
            int32_t w = order[idx];
            double dw = delta[w];
            double coef = ident[w] * (1.0 + dw) / sigma[w];
            for (int64_t k = starts[w]; k < fill[w]; k++) {
                int32_t v = preds[k];
                delta[v] += sigma[v] * coef;
            }
            fill[w] = starts[w];
            bc[w] += mult * dw;
            dist[w] = UNSEEN;
        }
        dist[s] = UNSEEN; /* a source has no predecessor: its bucket stayed empty */
        seconds[0] += mid - start;
        seconds[1] += now() - mid;
    }
}

/* One side-vertex sweep.  The work graph at sweep start has n vertex ids
 * with its adjacency as a CSR (offsets, targets), each row in its set's
 * iteration order, and the original vertices each id carries as a second
 * CSR (member_offsets, members).  dist, order (int32), sigma, delta (double)
 * and degree (int64) are n-element workspaces, and preds, starts and fill
 * the predecessor buckets' as for bcs_brandes.
 *
 * For each of the ncand candidates in turn, a candidate with no neighbor
 * left is skipped.  Otherwise one run from it adds, for every vertex w it
 * reaches, m * delta[w] + m * (delta[w] - (reach[w] - 1)) with
 * m = reach[s] * ident[s] to out[] of each of w's members, in reverse BFS
 * order and skipping zero amounts; then the endpoint credit
 * (reach[s] - 1) * (mass reached), summed in integers, to each of its own
 * members.  The candidate is then taken out of the graph: later runs see
 * its rows as if it were deleted, and deleting from a list never reorders
 * the rest, so every run visits the vertices of ``side_sweep_python`` in
 * its order and out[] receives the same additions in the same order.
 *
 * Writes the removed candidates, in order, to removed, and adds the runs
 * and the arcs they scanned (the live degrees of the vertices each run
 * reached) to counts[0] and counts[1]. */
void bcs_side_sweep(int64_t n, const int64_t *offsets, const int32_t *targets,
                    const int64_t *member_offsets, const int64_t *members,
                    const double *reach, const double *ident,
                    const int32_t *candidates, int64_t ncand, double *out,
                    int32_t *dist, int32_t *order, double *sigma, double *delta,
                    int32_t *preds, int64_t *starts, int64_t *fill,
                    int64_t *degree, int32_t *removed, int64_t *counts)
{
    empty_buckets(n, offsets, targets, starts, fill);
    for (int64_t v = 0; v < n; v++) {
        dist[v] = UNSEEN;
        degree[v] = offsets[v + 1] - offsets[v];
    }
    int64_t runs = 0;
    int64_t arcs = 0;
    for (int64_t i = 0; i < ncand; i++) {
        int32_t s = candidates[i];
        if (degree[s] == 0)
            continue; /* earlier removals in this sweep emptied its neighborhood */
        int64_t end = forward(s, offsets, targets, reach, ident, dist, order, sigma, delta, preds, fill);
        double m = reach[s] * ident[s];
        int64_t mass = 0;
        for (int64_t idx = end - 1; idx > 0; idx--) { /* order[0] is s */
            int32_t w = order[idx];
            double dw = delta[w];
            double coef = ident[w] * (1.0 + dw) / sigma[w];
            for (int64_t k = starts[w]; k < fill[w]; k++) {
                int32_t v = preds[k];
                delta[v] += sigma[v] * coef;
            }
            fill[w] = starts[w];
            double amount = m * dw + m * (dw - (reach[w] - 1.0));
            if (amount != 0.0)
                for (int64_t k = member_offsets[w]; k < member_offsets[w + 1]; k++)
                    out[members[k]] += amount;
            mass += (int64_t)ident[w] * (int64_t)reach[w];
            arcs += degree[w];
            dist[w] = UNSEEN;
        }
        if (reach[s] > 1.0) {
            double credit = (double)(((int64_t)reach[s] - 1) * mass);
            for (int64_t k = member_offsets[s]; k < member_offsets[s + 1]; k++)
                out[members[k]] += credit;
        }
        arcs += degree[s];
        dist[s] = ABSENT;
        for (int64_t a = offsets[s]; a < offsets[s + 1]; a++)
            if (dist[targets[a]] != ABSENT)
                degree[targets[a]]--;
        degree[s] = 0; /* so a repeated candidate is skipped */
        removed[runs++] = s;
    }
    counts[0] += runs;
    counts[1] += arcs;
}
