/* The compiled forms of bcshatter's hot loops, eleven entry points:
 *
 * - bcs_brandes, all sources of every component of the engine's layout in
 *   one call, each component's 64 to a traversal: the compiled form of
 *   ``kernels.brandes_python``;
 * - bcs_side_sweep, the side pass's candidate test and one compensation run
 *   per candidate over the work graph: the compiled form of
 *   ``kernels.side_sweep_python``;
 * - bcs_degree1, the degree-1 pass's cascade over the work graph: the
 *   compiled form of ``kernels.degree1_python``;
 * - bcs_twin_sweep, the twin grouping of one merge sweep and its credits:
 *   the compiled form of ``kernels.twin_sweep_python``;
 * - bcs_blocks, the blocks and cut-side masses of every component of the
 *   work graph: the compiled form of ``kernels.block_walk_python``;
 * - bcs_bfs, the one BFS, over a ``Graph``'s CSR for ``graph.bfs_order``
 *   and ``graph.connected_components``, and over the work graph for
 *   ``WorkGraph.components`` and bcs_degree1: the compiled form of
 *   ``kernels.bfs_python``;
 * - bcs_compact, the rebuild of the work graph's rows that drops vertices
 *   or arcs, for ``WorkGraph.compact``: the compiled form of
 *   ``kernels.rebuild_python``;
 * - bcs_shatter, the articulation pass's shattered rows, with the arcs into
 *   copied tops rewritten and the arcs that move to the copies in the
 *   copies' rows: the compiled form of ``kernels.shatter_arcs_python``;
 * - bcs_parse, the one pass over a plain edge list's bytes, called by
 *   ``graph._parse_plain_edge_list`` only: the compiled form of the line loop
 *   of ``graph.parse_edge_list``, on the texts it takes;
 * - bcs_edge_csr, the builder of every ``Graph``, and bcs_relabel, the
 *   renamed CSR of ``graph.relabel``, written transposed: the compiled forms
 *   of ``graph._edge_csr``'s and ``graph.relabel``'s numpy forms.
 *
 * bcs_blocks and bcs_bfs are scans, as are the candidate test of
 * bcs_side_sweep and the grouping of bcs_twin_sweep: they compute no score,
 * and return what the Python code returns, in order.  bcs_degree1 and
 * bcs_twin_sweep add a pass's credits to the scores: each credit is an
 * integer product below 2^53, computed in int64 and converted to double
 * exactly, and the one division is of two such doubles, so each rounds as
 * the Python loop's int arithmetic and true division do.  bcs_compact and
 * bcs_shatter are the edits: they compute no score, and write the arrays
 * their numpy forms return, element for element.  bcs_edge_csr builds a
 * ``Graph``'s CSR, symmetric, ascending and free of self-loops; bcs_relabel
 * stays in bounds on any CSR ``kernels._check_csr`` accepts.
 *
 * An entry point takes only its inputs and the results its caller reads:
 * take() sizes its scratch from its arguments, and release() frees it on
 * every return.  When an allocation fails it returns -1 before it writes
 * anything, and ``kernels`` raises MemoryError.
 *
 * The work graph is read in place: its rows are one plain CSR (offsets,
 * targets), every target a vertex, as bcs_compact and bcs_shatter write
 * them, so the scans and loops read every arc of every row, in the order of
 * the lists ``WorkGraph.rows`` gives the Python forms.
 *
 * bcs_brandes runs up to 64 sources of one component in one traversal, in
 * a canonical order defined per source (see there), so no score depends on
 * which sources share a traversal or on which components share a call.  A
 * vertex's per-lane slots are indexed from its component's first id, so the
 * scratch spans the largest component, and ``kernels.brandes`` refuses an
 * arc that leaves its component before the call.
 * ``kernels.brandes_python`` takes one source at a time in that order, so
 * the two agree bit for bit for any rows, symmetric or not, repeated
 * entries included.  Every floating-point expression is the
 * Python form's, evaluated in the same order, and every attribute factor is
 * applied even when it is 1.
 *
 * bcs_side_sweep runs one FIFO BFS per candidate, forward(), that records
 * each vertex's predecessors in a bucket (Brandes, J. Math. Sociol. 25(2),
 * 2001), and a backward sweep that pushes each dependency along its bucket
 * only, in reverse BFS order, as ``kernels.side_bfs`` does with its
 * predecessor lists.  The side runs keep this traversal of their own: on
 * bcs_brandes's traversal, one lane or a batch of them, they measured
 * slower (ROADMAP item 3, reopened after items 1-2).
 *
 * Build: cc -O2 -shared -fPIC -ffp-contract=off.  Contracting a * b + c into
 * a fused multiply-add would round differently from Python.
 */
#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
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

/* A function's scratch arrays, each its own malloc as numpy's were: glibc
 * serves each from the free memory its heap holds already, where one block
 * of their total size would be mapped afresh, raising the resident set. */
struct scratch {
    void *arrays[10]; /* more than any function takes */
    int count, failed;
};

/* An array of count elements of size bytes for release() to free; marks s
 * failed when malloc, asked one byte more lest it return NULL for 0, fails. */
static void *take(struct scratch *s, int64_t count, size_t size)
{
    void *array = malloc((size_t)count * size + 1);
    s->failed |= array == NULL;
    return s->arrays[s->count++] = array;
}

/* Frees what s took, and returns -1 for an allocation that failed. */
static int64_t release(struct scratch *s)
{
    while (s->count > 0)
        free(s->arrays[--s->count]);
    return -1;
}

/* Lays out the side sweep's predecessor buckets and leaves them empty.
 * Bucket w is preds[starts[w] .. starts[w + 1]), one slot per occurrence of
 * w in targets: a run records v in it once per occurrence of w in v's row
 * at most, so whatever the rows, no write leaves the bucket.  fill[w] is
 * one past the last predecessor recorded in it. */
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

/* The forward BFS from s of one side-sweep run: fills order, dist, sigma
 * and delta for every vertex s reaches, records each vertex's predecessors
 * in its bucket, and returns how many vertices s reaches (order[0] is s); it
 * never discovers an ABSENT vertex.  The sweep reads a swept vertex's
 * bucket and empties it again. */
static int64_t forward(int32_t s, const int64_t *offsets, const int32_t *targets,
                       const int64_t *reach, const int64_t *ident,
                       int32_t *dist, int32_t *order, double *sigma, double *delta,
                       int32_t *preds, int64_t *fill)
{
    int64_t end = 1;
    order[0] = s;
    dist[s] = 0;
    sigma[s] = 1.0;
    delta[s] = (double)reach[s] - 1.0;
    for (int64_t head = 0; head < end; head++) {
        int32_t v = order[head];
        int32_t dv1 = dist[v] + 1;
        /* a source forwards its sigma without the ident fan-out */
        double sv = v != s ? sigma[v] * (double)ident[v] : sigma[v];
        for (int64_t a = offsets[v]; a < offsets[v + 1]; a++) {
            int32_t w = targets[a];
            if (dist[w] == UNSEEN) {
                dist[w] = dv1;
                sigma[w] = 0.0;
                delta[w] = (double)reach[w] - 1.0;
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

static int ascending(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Sorts ids[0 .. len) ascending: insertion sort for the short rows most
 * vertices have, qsort for the rest. */
static void sort_ids(int32_t *ids, int64_t len)
{
    if (len > 16) {
        qsort(ids, (size_t)len, sizeof *ids, ascending);
        return;
    }
    for (int64_t i = 1; i < len; i++) {
        int32_t x = ids[i];
        int64_t j = i;
        for (; j > 0 && ids[j - 1] > x; j--)
            ids[j] = ids[j - 1];
        ids[j] = x;
    }
}

/* Is x among the ascending ids[0 .. len)? */
static int contains(const int32_t *ids, int64_t len, int32_t x)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (ids[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < len && ids[lo] == x;
}

/* Lanes of one bcs_brandes traversal at most, one bit each of a uint64_t
 * mask, and the bytes its arrays of one slot per vertex and lane may take:
 * sigma and delta (8 bytes each), and the level lists' ids and masks (4 and
 * 8), 28 bytes a slot. */
#define LANES 64
#define LANE_BYTES ((int64_t)64 << 20)
#define SLOT_BYTES 28

/* The lanes of the traversals over a component of size vertices: one per
 * source up to LANES, fewer only where size * lanes slots would pass
 * LANE_BYTES, one at least. */
static int64_t lanes_for(int64_t size)
{
    int64_t lanes = size < LANES ? size : LANES;
    if (lanes * size > LANE_BYTES / SLOT_BYTES)
        lanes = LANE_BYTES / SLOT_BYTES / size > 1 ? LANE_BYTES / SLOT_BYTES / size : 1;
    return lanes;
}

/* Puts the count ids of a new level in increasing order: by a scan of their
 * marks next[] over the span of their ids when that span is short beside
 * count, else by sort_ids. */
static void sort_level(int32_t *ids, int64_t count, const uint64_t *next)
{
    int32_t lo = ids[0], hi = ids[0];
    for (int64_t i = 1; i < count; i++) {
        lo = ids[i] < lo ? ids[i] : lo;
        hi = ids[i] > hi ? ids[i] : hi;
    }
    if (count <= 16 || hi - lo >= 8 * count) {
        sort_ids(ids, count);
        return;
    }
    for (int32_t w = lo, k = 0; w <= hi; w++)
        if (next[w])
            ids[k++] = w;
}

/* bounds[ncomp] vertices laid out as ncomp components: component c is the
 * ids bounds[c] .. bounds[c + 1] - 1, and bounds[0] is 0.  The neighbors of
 * v are targets[offsets[v] .. offsets[v + 1]), every one in v's component;
 * the rows need not be symmetric and may repeat an entry.  Adds each
 * vertex's score to bc, and the seconds of the forward traversals and of
 * the backward sweeps, with the score additions, to seconds[0] and
 * seconds[1].  Returns 0.
 *
 * Each component of two or more vertices runs on its own, its sources in
 * batches of up to lanes_for(its size) consecutive ids, one lane each, and
 * each batch runs one level-synchronous traversal (Then et al., "The More
 * the Merrier", PVLDB 8(4), 2014; in the multi-source Brandes of Sariyuce
 * et al., JPDC 76, 2015).  A traversal reads the component's ids from its
 * first id, base: every per-vertex slot below is indexed by v - base, so
 * the scratch spans the largest component, not the whole layout, and an arc
 * out of the component would index outside it (``kernels.brandes`` refuses
 * such an arc).  seen[v] has the bit of every lane that has reached v; level k is
 * the entries ids[ends[k] .. ends[k + 1]), each with the mask of the lanes
 * that reach that vertex at distance k, and sigma and delta keep one slot
 * per vertex and lane.  Each (vertex, lane) lies in one level at most, so
 * the level lists fit size * lanes entries whatever the depth, and a batch
 * touches only what its lanes reach.
 *
 * The canonical order, per source and so whatever lanes share a traversal:
 * a level is taken in increasing id; sigma[w] sums sigma[v] * ident[v]
 * (sigma[v] for the source) over the previous level's v in increasing id,
 * along v's row in row order; delta[v] starts at reach[v] - 1 and adds
 * sigma[v] * coef[w] along v's own row in row order for each w one level
 * deeper, coef[w] = ident[w] * (1 + delta[w]) / sigma[w], once per
 * occurrence of w; bc[w] adds reach[s] * ident[s] * delta[w] in increasing
 * s.  coef[w] takes sigma[w]'s slot: once it is known, no pull reads that
 * sigma again. */
int64_t bcs_brandes(const int64_t *offsets, const int32_t *targets, const double *reach, const double *ident,
                    int64_t ncomp, const int64_t *bounds, double *bc, double *seconds)
{
    int64_t largest = 0, slots = 0; /* the largest component, and the most slots of one */
    for (int64_t c = 0; c < ncomp; c++) {
        int64_t size = bounds[c + 1] - bounds[c];
        largest = size > largest ? size : largest;
        slots = size * lanes_for(size) > slots ? size * lanes_for(size) : slots;
    }
    struct scratch s = {0};
    double *sigma = take(&s, slots, 8), *delta = take(&s, slots, 8);
    int32_t *ids = take(&s, slots, 4);
    uint64_t *masks = take(&s, slots, 8), *seen = take(&s, largest, 8), *next = take(&s, largest, 8);
    int64_t *ends = take(&s, largest + 2, 8); /* a level per vertex at most, then an empty one */
    if (s.failed)
        return release(&s);
    for (int64_t c = 0; c < slots; c++)
        sigma[c] = 0.0;
    for (int64_t v = 0; v < largest; v++)
        seen[v] = next[v] = 0;
    for (int64_t c = 0; c < ncomp; c++) {
        int64_t base = bounds[c], size = bounds[c + 1] - base, lanes = lanes_for(size);
        if (size < 2)
            continue;
        /* the component's rows, attributes and scores from its first id */
        const int64_t *row = offsets + base;
        const double *r = reach + base, *id = ident + base;
        double *out = bc + base;
        int32_t shift = (int32_t)base;
        for (int64_t first = 0; first < size; first += lanes) {
            double start = now();
            int64_t fill = 0, depth = 0;
            ends[0] = 0;
            for (int64_t lane = 0; lane < lanes && first + lane < size; lane++, fill++) {
                ids[fill] = (int32_t)(first + lane);
                masks[fill] = seen[first + lane] = (uint64_t)1 << lane;
                sigma[(first + lane) * lanes + lane] = 1.0;
            }
            ends[1] = fill;
            for (; ends[depth] < ends[depth + 1]; depth++) {
                for (int64_t e = ends[depth]; e < ends[depth + 1]; e++) {
                    int32_t v = ids[e];
                    uint64_t mask = masks[e];
                    const double *sv = sigma + v * lanes;
                    double fan = depth ? id[v] : 1.0; /* a source forwards its sigma without the ident fan-out */
                    for (int64_t a = row[v]; a < row[v + 1]; a++) {
                        int32_t w = targets[a] - shift;
                        uint64_t fresh = mask & ~seen[w];
                        if (!fresh)
                            continue;
                        if (!next[w])
                            ids[fill++] = w;
                        next[w] |= fresh;
                        double *sw = sigma + w * lanes;
                        for (; fresh; fresh &= fresh - 1) {
                            int lane = __builtin_ctzll(fresh);
                            sw[lane] += sv[lane] * fan;
                        }
                    }
                }
                int64_t lo = ends[depth + 1];
                if (fill > lo)
                    sort_level(ids + lo, fill - lo, next);
                for (int64_t e = lo; e < fill; e++) {
                    masks[e] = next[ids[e]];
                    seen[ids[e]] |= masks[e];
                    next[ids[e]] = 0;
                }
                ends[depth + 2] = fill;
            }
            double mid = now();
            /* deepest level first; next[w] has the lanes that reach w one
             * level deeper than the level being swept */
            for (int64_t k = depth - 1; k >= 1; k--) {
                for (int64_t e = ends[k]; e < ends[k + 1]; e++) {
                    int32_t v = ids[e];
                    uint64_t mask = masks[e];
                    double *sv = sigma + v * lanes, *dv = delta + v * lanes;
                    for (uint64_t bits = mask; bits; bits &= bits - 1)
                        dv[__builtin_ctzll(bits)] = r[v] - 1.0;
                    for (int64_t a = row[v]; a < row[v + 1]; a++) {
                        int32_t w = targets[a] - shift;
                        const double *coef = sigma + w * lanes;
                        for (uint64_t bits = mask & next[w]; bits; bits &= bits - 1) {
                            int lane = __builtin_ctzll(bits);
                            dv[lane] += sv[lane] * coef[lane];
                        }
                    }
                    for (uint64_t bits = mask; bits; bits &= bits - 1) {
                        int lane = __builtin_ctzll(bits);
                        sv[lane] = id[v] * (1.0 + dv[lane]) / sv[lane];
                    }
                }
                for (int64_t e = ends[k + 1]; e < ends[k + 2]; e++)
                    next[ids[e]] = 0;
                for (int64_t e = ends[k]; e < ends[k + 1]; e++)
                    next[ids[e]] = masks[e];
            }
            for (int64_t e = ends[1]; e < ends[2]; e++)
                next[ids[e]] = 0;
            /* each reached vertex once, its lanes in increasing source
             * order; sigma and seen go back to rest */
            for (int64_t e = 0; e < fill; e++) {
                int32_t w = ids[e];
                double *sw = sigma + w * lanes, *dw = delta + w * lanes;
                for (uint64_t bits = seen[w]; bits; bits &= bits - 1) {
                    int lane = __builtin_ctzll(bits);
                    int64_t src = first + lane;
                    if (w != src)
                        out[w] += r[src] * id[src] * dw[lane];
                    sw[lane] = 0.0;
                }
                seen[w] = 0;
            }
            seconds[0] += mid - start;
            seconds[1] += now() - mid;
        }
    }
    release(&s);
    return 0;
}

/* One side-vertex pass.  The work graph at pass start has n vertices with
 * its rows (offsets, targets), the original vertices each id carries as a
 * second CSR (member_offsets, members) and its own int64 reach and ident,
 * each converted to double where a double expression reads it: exact below
 * 2^53, as the Python form's int-to-float conversions are.
 *
 * The candidates, the compiled form of the candidate test of
 * ``kernels.side_sweep_python``, are in increasing id order every v of
 * degree 1 to max_degree with edgeless[v] or clique[v] set (v's class is
 * not mixed) whose every neighbor x has ident[x] 1 or clique[x] set (x
 * unfolds into a clique) and shares with v all of v's neighbors but itself:
 * of the ids in v's row, exactly degree - 1 lie in x's row.  They are looked up by binary search in a copy
 * of the rows with each row sorted, so a vertex costs O(d^2 log D) however
 * large its neighbors' rows are.
 *
 * For each candidate in turn, one with no neighbor left is skipped.
 * Otherwise one run from it adds, for every vertex w it reaches,
 * m * delta[w] + m * (delta[w] - (reach[w] - 1)) with m = reach[s] *
 * ident[s] to out[] of each of w's members, in reverse BFS order and
 * skipping zero amounts; then the endpoint credit (reach[s] - 1) * (mass
 * reached), summed in integers, to each of its own members.  The candidate is then taken out of the graph: later runs see
 * its rows as if it were deleted, and deleting from a list never reorders
 * the rest, so every run visits the vertices of ``side_sweep_python`` in
 * its order and out[] receives the same additions in the same order.
 *
 * Writes the removed candidates, in order, to removed (n slots) and the
 * arcs their runs scanned (the degrees, less the arcs to earlier removed
 * candidates, of the vertices each run reached) to arcs[0], and returns how
 * many it removed. */
int64_t bcs_side_sweep(int64_t n, const int64_t *offsets, const int32_t *targets,
                       const int64_t *member_offsets, const int64_t *members,
                       const int64_t *reach, const int64_t *ident,
                       const uint8_t *edgeless, const uint8_t *clique, int64_t max_degree,
                       double *out, int32_t *removed, int64_t *arcs)
{
    struct scratch s = {0}, test = {0}; /* test: the sorted rows, freed before the runs */
    int32_t *sorted = take(&test, offsets[n], 4), *candidates = take(&s, n, 4);
    if (s.failed || test.failed)
        return release(&test), release(&s);
    for (int64_t a = 0; a < offsets[n]; a++)
        sorted[a] = targets[a];
    for (int64_t v = 0; v < n; v++)
        sort_ids(sorted + offsets[v], offsets[v + 1] - offsets[v]);
    int64_t ncand = 0;
    for (int32_t v = 0; v < n; v++) {
        int64_t d = offsets[v + 1] - offsets[v];
        if (!(edgeless[v] || clique[v]) || d < 1 || d > max_degree)
            continue;
        int simplicial = 1;
        for (int64_t a = offsets[v]; simplicial && a < offsets[v + 1]; a++) {
            int32_t x = targets[a];
            int64_t shared = 0;
            for (int64_t b = offsets[v]; b < offsets[v + 1]; b++)
                shared += contains(sorted + offsets[x], offsets[x + 1] - offsets[x], targets[b]);
            simplicial = (ident[x] == 1 || clique[x]) && shared == d - 1;
        }
        if (simplicial)
            candidates[ncand++] = v;
    }
    release(&test);
    double *sigma = take(&s, n, 8), *delta = take(&s, n, 8);
    int64_t *starts = take(&s, n + 1, 8), *fill = take(&s, n, 8), *degree = take(&s, n, 8);
    int32_t *dist = take(&s, n, 4), *order = take(&s, n, 4), *preds = take(&s, offsets[n], 4);
    if (s.failed)
        return release(&s);
    empty_buckets(n, offsets, targets, starts, fill);
    for (int32_t v = 0; v < n; v++) {
        dist[v] = UNSEEN;
        degree[v] = offsets[v + 1] - offsets[v];
    }
    int64_t runs = 0, scanned = 0;
    for (int64_t i = 0; i < ncand; i++) {
        int32_t s = candidates[i];
        if (degree[s] == 0)
            continue; /* earlier removals in this sweep emptied its neighborhood */
        int64_t end = forward(s, offsets, targets, reach, ident, dist, order, sigma, delta, preds, fill);
        double m = (double)reach[s] * (double)ident[s];
        int64_t mass = 0;
        for (int64_t idx = end - 1; idx > 0; idx--) { /* order[0] is s */
            int32_t w = order[idx];
            double dw = delta[w];
            double coef = (double)ident[w] * (1.0 + dw) / sigma[w];
            for (int64_t k = starts[w]; k < fill[w]; k++) {
                int32_t v = preds[k];
                delta[v] += sigma[v] * coef;
            }
            fill[w] = starts[w];
            double amount = m * dw + m * (dw - ((double)reach[w] - 1.0));
            if (amount != 0.0)
                for (int64_t k = member_offsets[w]; k < member_offsets[w + 1]; k++)
                    out[members[k]] += amount;
            mass += ident[w] * reach[w];
            scanned += degree[w];
            dist[w] = UNSEEN;
        }
        if (reach[s] > 1) {
            double credit = (double)((reach[s] - 1) * mass);
            for (int64_t k = member_offsets[s]; k < member_offsets[s + 1]; k++)
                out[members[k]] += credit;
        }
        scanned += degree[s];
        dist[s] = ABSENT;
        for (int64_t a = offsets[s]; a < offsets[s + 1]; a++)
            if (dist[targets[a]] != ABSENT)
                degree[targets[a]]--;
        degree[s] = 0; /* so a repeated candidate is skipped */
        removed[runs++] = s;
    }
    release(&s);
    arcs[0] = scanned;
    return runs;
}

/* Blocks and cut-side masses of every component, the compiled form of
 * ``kernels._block_dfs``: the same iterative Hopcroft-Tarjan walk (CACM
 * 16(6), 1973), rooted at each component's lowest id in increasing id
 * order, reading each row in CSR order.  reach and ident are the work
 * graph's own arrays; v's mass is ident[v] * reach[v], and a merged class
 * (ident[v] != 1) never tops a block.
 *
 * Block k is flat[block_ends[k] .. block_ends[k + 1]), its top last, with
 * below[k] the mass below its top; component c holds blocks comp_ends[c] ..
 * comp_ends[c + 1] - 1 and has mass totals[c].  flat needs 2n slots,
 * block_ends and comp_ends n + 1 and below and totals n: every vertex
 * leaves vstack once, into one block beside that block's top.
 * Writes the numbers of blocks and of components to counts[0] and
 * counts[1], and returns 0. */
int64_t bcs_blocks(int64_t n, const int64_t *offsets, const int32_t *targets,
                   const int64_t *reach, const int64_t *ident,
                   int32_t *flat, int32_t *block_ends, int64_t *below,
                   int32_t *comp_ends, int64_t *totals, int64_t *counts)
{
    struct scratch s = {0};
    int64_t *sub = take(&s, n, 8), *next = take(&s, n, 8);
    int32_t *disc = take(&s, n, 4), *low = take(&s, n, 4), *path = take(&s, n, 4);
    int32_t *at = take(&s, n, 4), *vstack = take(&s, n, 4);
    if (s.failed)
        return release(&s);
    int32_t nblocks = 0, ncomps = 0, fill = 0;
    for (int64_t v = 0; v < n; v++)
        disc[v] = -1;
    block_ends[0] = comp_ends[0] = 0;
    for (int32_t root = 0; root < n; root++) {
        if (disc[root] >= 0)
            continue;
        int32_t counter = 1, depth = 0, top = 0; /* top: vstack's size */
        disc[root] = low[root] = 0;
        sub[root] = ident[root] * reach[root];
        path[0] = root;
        next[0] = offsets[root];
        while (depth >= 0) {
            int32_t v = path[depth];
            int descended = 0;
            while (next[depth] < offsets[v + 1]) {
                int32_t u = targets[next[depth]++];
                int32_t du = disc[u];
                if (du < 0) {
                    depth++;
                    path[depth] = u;
                    next[depth] = offsets[u];
                    at[depth] = top;
                    vstack[top++] = u;
                    disc[u] = low[u] = counter++;
                    sub[u] = ident[u] * reach[u];
                    descended = 1;
                    break;
                }
                /* the tree edge to v's parent p may lower low[v] to disc[p];
                 * that leaves the block test low[v] >= disc[p] as it was */
                if (du < low[v])
                    low[v] = du;
            }
            if (descended)
                continue;
            if (--depth < 0)
                break;
            int32_t pv = path[depth];
            sub[pv] += sub[v];
            if (low[v] < low[pv])
                low[pv] = low[v];
            if (low[v] >= disc[pv] && ident[pv] == 1) {
                for (int32_t k = at[depth + 1]; k < top; k++)
                    flat[fill++] = vstack[k];
                flat[fill++] = pv;
                top = at[depth + 1];
                below[nblocks] = sub[v];
                block_ends[++nblocks] = fill;
            }
        }
        if (top > 0) { /* the blocks below a merged root, which tops no other block */
            for (int32_t k = 0; k < top; k++)
                flat[fill++] = vstack[k];
            flat[fill++] = root;
            below[nblocks] = sub[root] - ident[root] * reach[root];
            block_ends[++nblocks] = fill;
        }
        totals[ncomps] = sub[root];
        comp_ends[++ncomps] = nblocks;
    }
    release(&s);
    counts[0] = nblocks;
    counts[1] = ncomps;
    return 0;
}

/* Orders two twin keys: by length, then reach, then ids; 0 when equal. */
static int key_order(int32_t a, int32_t b, const int64_t *key_offsets, const int32_t *keys,
                     const int64_t *reach)
{
    int64_t la = key_offsets[a + 1] - key_offsets[a], lb = key_offsets[b + 1] - key_offsets[b];
    if (la != lb)
        return la < lb ? -1 : 1;
    if (reach[a] != reach[b])
        return reach[a] < reach[b] ? -1 : 1;
    const int32_t *ka = keys + key_offsets[a], *kb = keys + key_offsets[b];
    for (int64_t i = 0; i < la; i++)
        if (ka[i] != kb[i])
            return ka[i] < kb[i] ? -1 : 1;
    return 0;
}

/* Bottom-up merge sort of ids[0 .. len) by key_order, taking the left run's
 * element on ties, so equal keys keep their order; buf holds len ids.  The
 * sorted ids end in ids. */
static void sort_keys(int32_t *ids, int32_t *buf, int64_t len, const int64_t *key_offsets,
                      const int32_t *keys, const int64_t *reach)
{
    int32_t *from = ids, *to = buf;
    for (int64_t width = 1; width < len; width *= 2) {
        for (int64_t lo = 0; lo < len; lo += 2 * width) {
            int64_t mid = lo + width < len ? lo + width : len;
            int64_t hi = lo + 2 * width < len ? lo + 2 * width : len;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                to[k++] = key_order(from[j], from[i], key_offsets, keys, reach) < 0 ? from[j++] : from[i++];
            while (i < mid)
                to[k++] = from[i++];
            while (j < hi)
                to[k++] = from[j++];
        }
        int32_t *swap = from;
        from = to;
        to = swap;
    }
    for (int64_t i = 0; from != ids && i < len; i++)
        ids[i] = from[i];
}

/* One merge sweep, the compiled form of ``kernels.twin_sweep_python``: the
 * twin classes, then their credits.
 *
 * Every vertex with an arc gets the key (its row sorted, with v itself
 * inserted when closed and not among them already; its reach), written to
 * keys[key_offsets[v] .. key_offsets[v + 1]).  Equal keys share their first
 * id, so a stable counting sort by first id, from order into spare, puts
 * every class inside one bucket, with the bucket ends in lead (n + 1
 * slots).  A stable merge sort of each bucket of two or more by key, with
 * order as its buffer, then puts equal keys next to each other with their
 * ids ascending; keys are compared in full, so no two different keys ever
 * group.  The end of each run of equal keys goes to order, at the run's
 * start, and lead then marks the lowest member of each class of two or
 * more.  The classes go out in order of lowest member, members ascending:
 * class k is classes[class_ends[k] .. class_ends[k + 1]), with n slots in
 * classes and n + 1 in class_ends.
 *
 * With r a class's reach and t the sum of its idents, each vertex v of a
 * class of reach above 1 adds (t - ident[v]) * r * (r - 1) to each of its
 * members (the interior credit); in an open sweep each neighbor x of the
 * lowest member then adds (t^2 - the sum of the squared idents) * r^2 /
 * (the sum of ident over those neighbors) to each of its members (the
 * cross credit).  out[] receives the Python loop's additions in its order.
 * Returns how many classes there are. */
int64_t bcs_twin_sweep(int64_t n, const int64_t *offsets, const int32_t *targets,
                       const int64_t *member_offsets, const int64_t *members,
                       const int64_t *reach, const int64_t *ident, int64_t closed, double *out,
                       int32_t *classes, int32_t *class_ends)
{
    struct scratch s = {0};
    int64_t *key_offsets = take(&s, n + 1, 8);
    int32_t *keys = take(&s, offsets[n] + n, 4), *order = take(&s, n, 4);
    int32_t *spare = take(&s, n, 4), *lead = take(&s, n + 1, 4);
    if (s.failed)
        return release(&s);
    int64_t fill = 0, count = 0;
    for (int32_t v = 0; v < n; v++) {
        key_offsets[v] = fill;
        int64_t start = fill;
        for (int64_t a = offsets[v]; a < offsets[v + 1]; a++)
            keys[fill++] = targets[a];
        if (fill == start)
            continue; /* an isolated vertex has no twin */
        if (closed) {
            int mine = 0;
            for (int64_t k = start; k < fill; k++)
                mine |= keys[k] == v;
            if (!mine)
                keys[fill++] = v;
        }
        sort_ids(keys + start, fill - start);
        order[count++] = v;
    }
    key_offsets[n] = fill;
    /* buckets by first id: lead[f] ends up at the end of bucket f */
    for (int64_t f = 0; f <= n; f++)
        lead[f] = 0;
    for (int64_t i = 0; i < count; i++)
        lead[keys[key_offsets[order[i]]] + 1]++;
    for (int64_t f = 0; f < n; f++)
        lead[f + 1] += lead[f];
    for (int64_t i = 0; i < count; i++)
        spare[lead[keys[key_offsets[order[i]]]]++] = order[i];
    /* runs of equal keys in each bucket; order[i] is the end of the run
     * starting at i */
    for (int64_t lo = 0, hi; lo < count; lo = hi) {
        hi = lead[keys[key_offsets[spare[lo]]]];
        sort_keys(spare + lo, order + lo, hi - lo, key_offsets, keys, reach);
        for (int64_t i = lo, j; i < hi; i = j) {
            for (j = i + 1; j < hi && key_order(spare[i], spare[j], key_offsets, keys, reach) == 0; j++)
                ;
            order[i] = (int32_t)j;
        }
    }
    for (int64_t v = 0; v < n; v++)
        lead[v] = -1;
    for (int64_t i = 0; i < count; i = order[i])
        if (order[i] - i >= 2)
            lead[spare[i]] = (int32_t)i;
    int64_t ncls = 0, placed = 0;
    class_ends[0] = 0;
    for (int64_t v = 0; v < n; v++) {
        if (lead[v] < 0)
            continue;
        for (int32_t i = lead[v]; i < order[lead[v]]; i++)
            classes[placed++] = spare[i];
        class_ends[++ncls] = (int32_t)placed;
    }
    release(&s); /* the credits read only the classes */
    for (int64_t k = 0; k < ncls; k++) {
        const int32_t *verts = classes + class_ends[k];
        int64_t size = class_ends[k + 1] - class_ends[k];
        int64_t r = reach[verts[0]], total = 0, squares = 0;
        for (int64_t i = 0; i < size; i++) {
            total += ident[verts[i]];
            squares += ident[verts[i]] * ident[verts[i]];
        }
        /* each copy gates the reach mass of its new siblings' copies */
        if (r > 1)
            for (int64_t i = 0; i < size; i++) {
                double amount = (double)((total - ident[verts[i]]) * r * (r - 1));
                for (int64_t m = member_offsets[verts[i]]; m < member_offsets[verts[i] + 1]; m++)
                    out[members[m]] += amount;
            }
        if (closed)
            continue;
        /* open twins' cross pairs split evenly over the shared neighborhood */
        int64_t shared = 0;
        for (int64_t a = offsets[verts[0]]; a < offsets[verts[0] + 1]; a++)
            shared += ident[targets[a]];
        double amount = (double)((total * total - squares) * r * r) / (double)shared;
        for (int64_t a = offsets[verts[0]]; a < offsets[verts[0] + 1]; a++)
            for (int64_t m = member_offsets[targets[a]]; m < member_offsets[targets[a] + 1]; m++)
                out[members[m]] += amount;
    }
    return ncls;
}

/* The one BFS, the compiled form of ``kernels.bfs_python``: the vertices
 * of the CSR (offsets, targets) on n vertices in BFS dequeue order, from
 * start, then from each vertex no earlier BFS reached, lowest id first.
 * Component c is order[ends[c] .. ends[c + 1]); order needs n slots and
 * ends n + 1.  Returns the number of components. */
int64_t bcs_bfs(int64_t n, const int64_t *offsets, const int32_t *targets, int64_t start,
                int32_t *order, int64_t *ends)
{
    struct scratch s = {0};
    uint8_t *seen = take(&s, n, 1);
    if (s.failed)
        return release(&s);
    int64_t count = 0, end = 0;
    ends[0] = 0;
    for (int64_t v = 0; v < n; v++)
        seen[v] = 0;
    for (int64_t i = n ? -1 : 0; i < n; i++) { /* with no vertex, no start vertex either */
        int32_t root = (int32_t)(i < 0 ? start : i);
        if (seen[root])
            continue;
        seen[root] = 1;
        order[end++] = root;
        for (int64_t head = ends[count]; head < end; head++) {
            int32_t v = order[head];
            for (int64_t a = offsets[v]; a < offsets[v + 1]; a++) {
                int32_t w = targets[a];
                if (!seen[w]) {
                    seen[w] = 1;
                    order[end++] = w;
                }
            }
        }
        ends[++count] = end;
    }
    release(&s);
    return count;
}

/* The degree-1 cascade, the compiled form of ``kernels.degree1_python``.
 * The work graph is as for bcs_side_sweep, with ident and reach its
 * attributes and edgeless[v] set when v's copies are pairwise non-adjacent.
 * Per component, in order of lowest vertex, a FIFO queue starts with
 * its vertices of degree 0 or 1, ascending, and the cascade runs: a
 * lone vertex, or one whose row names no live neighbor, retires; a leaf u
 * whose one neighbor v is unmerged, and that is unmerged or an edgeless
 * class itself, folds into v, crediting u's members with (reach[u] - 1) *
 * rest when that is not 0 and v's first member with mass[u] * (rest - 1),
 * where mass is ident * reach and rest the component's mass at pass start
 * less mass[u]; v gains mass[u] in reach and is queued again when its
 * degree falls to 1 or 0.  out[] receives the Python loop's additions in
 * its order.
 *
 * The components are bcs_bfs's from vertex 0, each sorted.  The queue has
 * 2n slots: a component queues each of its vertices at most once as a
 * seed, and one vertex per fold.  Changes reach and out only; writes the
 * folded and retired vertices, in order, to gone (n slots) and their
 * retired mass to retired[0], and returns how many there are. */
int64_t bcs_degree1(int64_t n, const int64_t *offsets, const int32_t *targets,
                    const int64_t *member_offsets, const int64_t *members,
                    const int64_t *ident, const uint8_t *edgeless, int64_t *reach, double *out,
                    int32_t *gone, int64_t *retired)
{
    struct scratch s = {0};
    int64_t *ends = take(&s, n + 1, 8), *degree = take(&s, n, 8);
    int32_t *flat = take(&s, n, 4), *queue = take(&s, 2 * n, 4);
    uint8_t *alive = take(&s, n, 1);
    int64_t ncomps = s.failed ? -1 : bcs_bfs(n, offsets, targets, 0, flat, ends);
    if (ncomps < 0)
        return release(&s);
    for (int64_t c = 0; c < ncomps; c++)
        sort_ids(flat + ends[c], ends[c + 1] - ends[c]);
    for (int64_t v = 0; v < n; v++) {
        degree[v] = offsets[v + 1] - offsets[v];
        alive[v] = 1;
    }
    int64_t count = 0;
    retired[0] = 0;
    for (int64_t c = 0; c < ncomps; c++) {
        int64_t total = 0, head = 0, tail = 0;
        for (int64_t i = ends[c]; i < ends[c + 1]; i++) {
            total += ident[flat[i]] * reach[flat[i]];
            if (degree[flat[i]] <= 1)
                queue[tail++] = flat[i];
        }
        while (head < tail) {
            int32_t u = queue[head++];
            if (!alive[u])
                continue;
            /* queued at degree 1 or 0, and degrees only fall: at most one
             * live neighbor, which a row that is not symmetric may lack */
            int64_t a = offsets[u], end = degree[u] ? offsets[u + 1] : a;
            while (a < end && !alive[targets[a]])
                a++;
            if (a == end) { /* lone vertex: every pair involving its mass is settled */
                retired[0] += ident[u] * reach[u];
                alive[u] = 0;
                gone[count++] = u;
                continue;
            }
            int32_t v = targets[a];
            if (ident[v] != 1 || (ident[u] != 1 && !edgeless[u]))
                continue;
            int64_t mass = ident[u] * reach[u];
            int64_t rest = total - mass;
            int64_t credit = (reach[u] - 1) * rest;
            if (credit)
                for (int64_t k = member_offsets[u]; k < member_offsets[u + 1]; k++)
                    out[members[k]] += (double)credit;
            out[members[member_offsets[v]]] += (double)(mass * (rest - 1));
            reach[v] += mass;
            alive[u] = 0;
            gone[count++] = u;
            if (--degree[v] <= 1)
                queue[tail++] = v;
        }
    }
    release(&s);
    return count;
}

/* The rebuild of the work graph's CSR that drops vertices or arcs, the
 * compiled form of ``kernels.rebuild_python``: drops the vertices
 * keep_vertices clears, with their rows and the arcs into them, and the arcs
 * keep_arcs clears (a NULL mask keeps them all).  Every target lies in
 * [0, n).  The kept vertices are renumbered in increasing order by a map,
 * and each kept row keeps its kept arcs in order.  new_offsets needs a slot
 * per kept vertex and one more, new_targets one per kept arc.  Returns how
 * many arcs are kept. */
int64_t bcs_compact(int64_t n, const int64_t *offsets, const int32_t *targets,
                    const uint8_t *keep_vertices, const uint8_t *keep_arcs,
                    int64_t *new_offsets, int32_t *new_targets)
{
    struct scratch s = {0};
    int32_t *renumber = keep_vertices ? take(&s, n, 4) : NULL;
    if (s.failed)
        return release(&s);
    int32_t kept = 0;
    for (int64_t v = 0; renumber && v < n; v++)
        renumber[v] = keep_vertices[v] ? kept++ : -1;
    int64_t out = 0, row = 0;
    new_offsets[0] = 0;
    for (int64_t v = 0; v < n; v++) {
        if (renumber && renumber[v] < 0)
            continue;
        for (int64_t a = offsets[v]; a < offsets[v + 1]; a++) {
            int32_t t = renumber ? renumber[targets[a]] : targets[a];
            if (t >= 0 && (!keep_arcs || keep_arcs[a]))
                new_targets[out++] = t;
        }
        new_offsets[++row] = out;
    }
    release(&s);
    return out;
}

/* The articulation pass's shattered rows, the compiled form of
 * ``kernels.shatter_arcs_python``.  Block k of a block walk is
 * flat[block_ends[k] .. block_ends[k + 1]), its top last, and each vertex
 * lies in at most one block as other than its top: its home.  Each block
 * copied[] marks, copies of them in all, gets a copy of its top, the copies
 * taking ids n, n + 1, ... in block order.  An arc from a vertex to the top
 * of its home block, where that block is copied, names the copy instead; an
 * arc from the top of a copied block to one of its other vertices moves to
 * the copy's row.  No arc does both: two blocks share at most one vertex.
 *
 * Writes the shattered rows, n + copies of them, as a new CSR (new_offsets,
 * new_targets) with offsets[n] arcs: each old row in order with its arcs
 * rewritten and its moved arcs left out, then each copy's row with its
 * moved arcs in arc order.  Two passes over the arcs: the first counts
 * each new row's arcs, the second writes them.  Returns 0. */
int64_t bcs_shatter(int64_t n, const int64_t *offsets, const int32_t *targets,
                    const int32_t *flat, const int32_t *block_ends, int64_t nblocks, const uint8_t *copied,
                    int64_t copies, int64_t *new_offsets, int32_t *new_targets)
{
    struct scratch s = {0};
    /* the copy of each vertex's home block's top, or -1, and that top */
    int32_t *home_copy = take(&s, n, 4), *home_top = take(&s, n, 4);
    int64_t *fill = take(&s, copies, 8); /* where each copy's next moved arc goes */
    if (s.failed)
        return release(&s);
    for (int64_t v = 0; v < n; v++)
        home_copy[v] = -1;
    for (int64_t k = 0, c = n; k < nblocks; k++) {
        int32_t copy = copied[k] ? (int32_t)c++ : -1;
        for (int64_t i = block_ends[k]; i + 1 < block_ends[k + 1]; i++) {
            home_copy[flat[i]] = copy;
            home_top[flat[i]] = flat[block_ends[k + 1] - 1];
        }
    }
    for (int64_t r = 0; r <= n + copies; r++)
        new_offsets[r] = 0;
    /* each arc's new row: its copy's when it moves, else its source's */
    for (int32_t v = 0; v < n; v++)
        for (int64_t a = offsets[v]; a < offsets[v + 1]; a++) {
            int32_t t = targets[a];
            new_offsets[(home_copy[t] >= 0 && home_top[t] == v ? home_copy[t] : v) + 1]++;
        }
    for (int64_t r = 0; r < n + copies; r++)
        new_offsets[r + 1] += new_offsets[r];
    for (int64_t c = 0; c < copies; c++)
        fill[c] = new_offsets[n + c];
    int64_t out = 0;
    for (int32_t v = 0; v < n; v++)
        for (int64_t a = offsets[v]; a < offsets[v + 1]; a++) {
            int32_t t = targets[a];
            if (home_copy[t] >= 0 && home_top[t] == v)
                new_targets[fill[home_copy[t] - n]++] = t;
            else
                new_targets[out++] = home_copy[v] >= 0 && home_top[v] == t ? home_copy[v] : t;
        }
    release(&s);
    return 0;
}

static inline int is_digit(uint8_t c)
{
    return c >= '0' && c <= '9';
}

/* The plain edge-list parse, in one pass.  text[0 .. len) is plain when it
 * holds only ASCII digits, spaces, tabs, line feeds and carriage returns, 0
 * or 2 ids (runs of digits) on each line, either break ending a line as for
 * str.splitlines, and ids in [base, base + ceiling).  Writes each id less
 * base to ids, which needs (len + 1) / 2 slots, and the largest to top[0];
 * returns the number of ids of a plain text, or -1 for any other.  ceiling
 * is at most 2^31, so a digit run of any length is read without overflow
 * and every id written fits int32. */
int64_t bcs_parse(const uint8_t *text, int64_t len, int64_t base, int64_t ceiling, int32_t *ids, int64_t *top)
{
    int64_t count = 0, line_start = 0, largest = -1;
    for (int64_t i = 0; i < len;) {
        uint8_t c = text[i];
        if (is_digit(c)) {
            if (count - line_start == 2)
                return -1;
            int64_t id = 0;
            for (; i < len && is_digit(text[i]); i++)
                if (id <= ceiling + base) /* past it, the id is refused whatever digits follow */
                    id = id * 10 + (text[i] - '0');
            id -= base;
            if (id < 0 || id >= ceiling)
                return -1;
            ids[count++] = (int32_t)id;
            if (id > largest)
                largest = id;
            continue;
        }
        if (c == '\n' || c == '\r') {
            if (count - line_start == 1)
                return -1;
            line_start = count;
        } else if (c != ' ' && c != '\t') {
            return -1;
        }
        i++;
    }
    if (count - line_start == 1)
        return -1;
    top[0] = largest;
    return count;
}

/* The simple graph on n vertices whose edges are the npairs pairs
 * (ids[2k], ids[2k + 1]), every id in [0, n), as a ``Graph``'s CSR: the
 * compiled form of ``graph._edge_csr``'s numpy form.  Each pair but a
 * self-loop goes into both its vertices' rows, each row ascending, and
 * repeats, of either orientation, are dropped.  offsets (n + 1 slots)
 * receives the rows' bounds and arcs (2 * npairs slots) the rows, packed at
 * its front, and ids is overwritten.  Writes the numbers of self-loops and
 * of repeated pairs to counts[0] and counts[1] and returns the number of
 * edges. */
int64_t bcs_edge_csr(int64_t n, int64_t npairs, int32_t *ids, int64_t *offsets, int32_t *arcs, int64_t *counts)
{
    struct scratch s = {0};
    int64_t *fill = take(&s, n, 8);
    if (s.failed)
        return release(&s);
    int64_t loops = 0;
    for (int64_t v = 0; v <= n; v++)
        offsets[v] = 0;
    for (int64_t k = 0; k < npairs; k++) {
        int32_t u = ids[2 * k], v = ids[2 * k + 1];
        if (u == v) {
            loops++;
            continue;
        }
        offsets[u + 1]++;
        offsets[v + 1]++;
    }
    for (int64_t v = 0; v < n; v++) {
        offsets[v + 1] += offsets[v];
        fill[v] = offsets[v];
    }
    /* the arcs into each vertex, by their source: as the arcs come in both
     * directions, the buckets have the rows' bounds */
    for (int64_t k = 0; k < npairs; k++) {
        int32_t u = ids[2 * k], v = ids[2 * k + 1];
        if (u != v) {
            arcs[fill[u]++] = v;
            arcs[fill[v]++] = u;
        }
    }
    /* transposed into ids, each row receives its targets in increasing
     * order, with no comparison */
    for (int64_t v = 0; v < n; v++)
        fill[v] = offsets[v];
    for (int32_t t = 0; t < n; t++)
        for (int64_t a = offsets[t]; a < offsets[t + 1]; a++)
            ids[fill[arcs[a]]++] = t;
    /* pack each row's distinct ids to the front of arcs, row by row */
    int64_t out = 0, start = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t end = offsets[v + 1];
        offsets[v] = out;
        for (int64_t a = start; a < end; a++)
            if (a == start || ids[a] != ids[a - 1])
                arcs[out++] = ids[a];
        start = end;
    }
    offsets[n] = out;
    release(&s);
    counts[0] = loops;
    counts[1] = npairs - loops - out / 2;
    return out / 2;
}

/* The CSR (offsets, neighbors) on n vertices with every vertex v renamed
 * forward[v], inverse the inverse permutation, written transposed: new row
 * forward[w] receives each new id t whose old row inverse[t] holds w, filled
 * from its end in decreasing t, so it comes out ascending with no
 * comparison; symmetric rows come out as the old rows renamed and sorted.
 * new_offsets needs n + 1 slots and new_neighbors offsets[n]. */
void bcs_relabel(int64_t n, const int64_t *offsets, const int32_t *neighbors, const int64_t *forward,
                 const int64_t *inverse, int64_t *new_offsets, int32_t *new_neighbors)
{
    for (int64_t i = 0; i <= n; i++)
        new_offsets[i] = 0;
    for (int64_t a = 0; a < offsets[n]; a++)
        new_offsets[forward[neighbors[a]]]++;
    for (int64_t i = 0; i < n; i++) /* each row's end */
        new_offsets[i + 1] += new_offsets[i];
    for (int64_t t = n - 1; t >= 0; t--)
        for (int64_t a = offsets[inverse[t]]; a < offsets[inverse[t] + 1]; a++)
            new_neighbors[--new_offsets[forward[neighbors[a]]]] = (int32_t)t;
}
