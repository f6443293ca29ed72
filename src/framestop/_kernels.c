/* Compiled kernels of framestop, loaded through ctypes by _kernels.py.

   fs_absorb is CombinerState.absorb in one call, and combiner.align when
   it is given no merge: it computes the substitution and gap costs as
   metrics.pairwise_costs and metrics.gap_costs do, summing in numpy's
   pairwise order, fills the backward GLD table as metrics.cost_table
   does, reads the path off as combiner._path does, and then merges the
   rows along it as combiner._merge does and writes the history store as
   CombinerState._record does.  fs_gld is metrics.gld in one call, with
   the same costs and table.  Every result is bit-identical to the Python
   reference, which runs the same IEEE operations in the same order; build
   without floating-point contraction (-ffp-contract=off) and without
   -ffast-math.  numpy does not promise its summation order, so the loader
   checks the C costs against numpy's bit for bit before gld, align or
   absorb use either kernel.
   fs_spread is CombinerState.candidate_gld, the one history scan of
   methods a and b over the rows-plus-slots history store: every
   candidate's distance and their sums in one call.  It sums each frame's
   spread in its own order, and a slot holding the empty row adds that
   row's distance, computed once per call.
   fs_absorb and fs_spread take one struct, struct fs_absorb_args, which
   describes the history store once; each CombinerState keeps one.  The
   caller makes room in the store before a call, and both refuse a call
   the store has no room for, as they write through its addresses.
   The hot loops, the cost sums, the scan's row distance and the merge,
   run on vectors of four doubles whose lanes are the scalar order's
   accumulators, so they give the same bits on any instruction set.  On
   x86-64 ELF with glibc, the entry points are built twice, for AVX2 and
   for the baseline, and the dynamic loader picks one (CLONED); elsewhere
   the baseline build alone runs the same vector code. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* An AVX2 clone and a baseline one of each entry point, the loader
   choosing through an ifunc, which needs an x86-64 ELF toolchain and
   glibc; elsewhere one baseline build.  AVX2 only: a target with FMA
   (fma, x86-64-v3) would be one flag away from fusing a multiply and an
   add, which rounds once where the reference rounds twice. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONED
#define CLONED
#endif

/* Four doubles; lane k of a sum is the scalar order's accumulator k, so
   every addition has the same operands in the same order. */
typedef double f64x4 __attribute__((vector_size(32)));
typedef int64_t i64x4 __attribute__((vector_size(32)));

/* Functions called from an entry point are inlined into both clones.  A
   vector never passes by value through a function: a 32-byte vector has
   another ABI in the AVX2 clone than in the baseline one, so the vector
   steps are macros. */
#define INLINE static inline __attribute__((always_inline))

/* The sign bits clear, the rest set */
static const i64x4 magnitude = {INT64_MAX, INT64_MAX, INT64_MAX, INT64_MAX};

/* LOAD4(p): four doubles from any address.  ABS4(v): |v| by clearing the
   sign bits, the bits fabs gives. */
#define LOAD4(p)                                                              \
    __extension__({                                                           \
        f64x4 v_;                                                             \
        memcpy(&v_, (p), sizeof v_);                                          \
        v_;                                                                   \
    })
#define ABS4(v) ((f64x4)((i64x4)(v) & magnitude))

/* Backward GLD table: table[i*(m+1)+j] is the least cost of aligning rows
   i.. of the first sequence with rows j.. of the second.  sub is s*m, row
   major (unused when s or m is 0).  Returns table[0], the GLD. */
static double fill(const double *sub, const double *gap_rows, const double *gap_cols, int64_t s,
                   int64_t m, double *table)
{
    const int64_t w = m + 1;
    double *below = table + s * w;
    below[m] = 0.0;
    for (int64_t j = m - 1; j >= 0; j--)
        below[j] = gap_cols[j] + below[j + 1];
    for (int64_t i = s - 1; i >= 0; i--) {
        double *row = table + i * w;
        const double *sub_i = sub + i * m;
        const double skip = gap_rows[i];
        double left = skip + below[m];
        row[m] = left;
        for (int64_t j = m - 1; j >= 0; j--) {
            double best = sub_i[j] + below[j + 1];
            double alt = skip + below[j];
            if (alt < best)
                best = alt;
            alt = gap_cols[j] + left;
            if (alt < best)
                best = alt;
            row[j] = left = best;
        }
        below = row;
    }
    return table[0];
}

/* NAME(a, b, n) sums TERM(i) over i = 0..n-1 in the order numpy's
   pairwise_sum adds a contiguous float64 axis (np.add.reduce): a plain
   loop from 0 below 8 terms; up to 128 terms, 8 accumulators seeded with
   the first eight terms and combined as ((0+1)+(2+3))+((4+5)+(6+7)), then
   the tail added in order; above 128, the two parts summed apart, split
   at n/2 rounded down to a multiple of 8.  The accumulators are the lanes
   of two vectors, 0-3 and 4-7, which TERM4(i) advances by terms i..i+3.
   NAME##_split, the part above 128 terms, is not inlined, as it recurses,
   so it runs the baseline build in either clone. */
#define PAIRWISE(NAME, TERM, TERM4)                                           \
    static double NAME##_split(const double *a, const double *b, int64_t n); \
    INLINE double NAME(const double *a, const double *b, int64_t n)           \
    {                                                                         \
        (void)b;                                                              \
        if (n < 8) {                                                          \
            double res = 0.0;                                                 \
            for (int64_t i = 0; i < n; i++)                                   \
                res += TERM(i);                                               \
            return res;                                                       \
        }                                                                     \
        if (n > 128)                                                          \
            return NAME##_split(a, b, n);                                     \
        f64x4 lo = TERM4(0), hi = TERM4(4);                                   \
        int64_t i = 8;                                                        \
        for (; i < n - n % 8; i += 8) {                                       \
            lo += TERM4(i);                                                   \
            hi += TERM4(i + 4);                                               \
        }                                                                     \
        double res = ((lo[0] + lo[1]) + (lo[2] + lo[3])) +                    \
                     ((hi[0] + hi[1]) + (hi[2] + hi[3]));                     \
        for (; i < n; i++)                                                    \
            res += TERM(i);                                                   \
        return res;                                                           \
    }                                                                         \
    static double NAME##_split(const double *a, const double *b, int64_t n)  \
    {                                                                         \
        int64_t half = n / 2;                                                 \
        half -= half % 8;                                                     \
        return NAME(a, b, half) + NAME(a + half, b ? b + half : b, n - half); \
    }

#define ABS_DIFF(i) fabs(a[i] - b[i])
#define ABS_DIFF4(i) ABS4(LOAD4(a + (i)) - LOAD4(b + (i)))
#define ABS(i) fabs(a[i])
#define ABS_ALONE4(i) ABS4(LOAD4(a + (i)))
PAIRWISE(sum_abs_diff, ABS_DIFF, ABS_DIFF4)
PAIRWISE(sum_abs, ABS, ABS_ALONE4)

/* The costs of aligning the s rows x with the m rows y, each of width
   doubles, row major: sub (s*m) as metrics.pairwise_costs(x, y), then
   gap_rows (s) and gap_cols (m), which follow it, as metrics.gap_costs of
   x and of y.  Returns the GLD table filled over them into table, of
   (s+1)*(m+1) doubles. */
INLINE double costs_and_table(const double *x, int64_t s, const double *y, int64_t m,
                              int64_t width, double *sub, double *table)
{
    double *gap_rows = sub + s * m, *gap_cols = gap_rows + s;
    /* gap_cols follows gap_rows, and y's rows follow x's in the count */
    for (int64_t k = 0; k < s + m; k++) {
        const double *row = k < s ? x + k * width : y + (k - s) * width;
        gap_rows[k] = 0.5 * (sum_abs(row, NULL, width) - fabs(row[0]) + fabs(row[0] - 1.0));
    }
    for (int64_t i = 0; i < s; i++)
        for (int64_t j = 0; j < m; j++)
            sub[i * m + j] = 0.5 * sum_abs_diff(x + i * width, y + j * width, width);
    return fill(sub, gap_rows, gap_cols, s, m, table);
}

/* metrics.gld of the s rows x and the m rows y, each of width doubles,
   row major.  work holds s*m + s + m + (s+1)*(m+1) doubles: it receives
   the substitution costs and the gap costs of x and of y, as
   costs_and_table writes them, then the table.  Returns the GLD. */
CLONED double fs_gld(const double *x, int64_t s, const double *y, int64_t m, int64_t width,
              double *work)
{
    return costs_and_table(x, s, y, m, width, work, work + s * m + s + m);
}

/* The failure codes of fs_absorb and fs_spread, mirrored in _kernels.py */
enum { FS_NO_PATH = -1, FS_NO_ROOM = -2, FS_NO_MEMORY = -3 };

/* Path through a filled table, read from the front with the tie order
   match, then skip the result row, then insert the frame row,
   recomputing each choice as fill made it.  Writes one (result row,
   frame row) pair per step, s or m standing for the empty row a gap step
   pairs with; room for s + m steps.
   Returns the number of steps, or FS_NO_PATH when a step has no choice to
   take, which only a NaN in the costs brings about. */
static int64_t trace(const double *sub, const double *gap_rows, const double *table, int64_t s,
                     int64_t m, int64_t *result_rows, int64_t *frame_rows)
{
    const int64_t w = m + 1;
    int64_t i = 0, j = 0, k = 0;
    while (i < s || j < m) {
        const double here = table[i * w + j];
        if (i < s && j < m && sub[i * m + j] + table[(i + 1) * w + j + 1] == here) {
            result_rows[k] = i++;
            frame_rows[k] = j++;
        } else if (i < s && gap_rows[i] + table[(i + 1) * w + j] == here) {
            result_rows[k] = i++;
            frame_rows[k] = m;
        } else if (j < m) {
            result_rows[k] = s;
            frame_rows[k] = j++;
        } else {
            return FS_NO_PATH; /* no choice reproduces the cell: a NaN cost */
        }
        k++;
    }
    return k;
}

/* The arguments of fs_absorb and fs_spread, mirrored by
   _kernels.AbsorbArgs; every field is 8 bytes, so the two layouts agree
   without padding. */
struct fs_absorb_args {
    /* The alignment of the m frame rows against the s result rows, each
       of width doubles, row major.  path is NULL, or room for 2 (s + m)
       entries that receive the path: the result rows at 0, the frame rows
       at s + m.  cost and inserted are outputs. */
    const double *result;
    int64_t s;
    const double *frame;
    int64_t m;
    int64_t width;
    int64_t *path;
    double cost;
    int64_t inserted;
    /* The merge, skipped when merged is NULL.  result and frame are each
       followed by the empty row (s + 1 and m + 1 rows); merged has room
       for s + m + 1 rows and order for s + m entries, of which the first s
       hold the result rows' ids in display order on entry. */
    double factor;
    double *merged;
    int64_t *order;
    int64_t next_id;
    /* The history store, skipped by fs_absorb when rows is NULL: rows is
       (capacity, width) with used rows in use, slots (frames, stride), and
       current (stride, width), the combined rows by row id. */
    double *rows;
    int64_t used;
    int64_t capacity;
    int64_t *slots;
    int64_t frame_index;
    int64_t frames;
    int64_t stride;
    double *current;
    /* The scan of fs_spread over the first n frames and the first s
       current rows: shares is NULL or one merge share per frame, else
       share is every frame's; length is the nGLD length sum, negative for
       GLD.  out, room for n entries, and the two sums are outputs. */
    int64_t n;
    const double *shares;
    double share;
    double length;
    double *out;
    double g_sum;
    double d_sum;
};

/* The merge along the path of steps result rows ri and frame rows fi, and
   the store write; see fs_absorb. */
INLINE void merge(struct fs_absorb_args *a, const int64_t *ri, const int64_t *fi, int64_t steps)
{
    const int64_t s = a->s, m = a->m, width = a->width;
    const f64x4 factor = {a->factor, a->factor, a->factor, a->factor};
    int64_t next_id = a->next_id + a->inserted;
    /* from the back, so order[ri[k]], with ri[k] <= k, is still the old id */
    for (int64_t k = steps - 1; k >= 0; k--)
        a->order[k] = ri[k] < s ? a->order[ri[k]] : --next_id;
    for (int64_t k = 0; k < steps; k++) {
        const double *old = a->result + ri[k] * width, *fresh = a->frame + fi[k] * width;
        double *out = a->merged + k * width;
        int64_t c = 0;
        for (; c + 4 <= width; c += 4) {
            const f64x4 was = LOAD4(old + c), blend = was + factor * (LOAD4(fresh + c) - was);
            memcpy(out + c, &blend, sizeof blend);
        }
        for (; c < width; c++)
            out[c] = old[c] + a->factor * (fresh[c] - old[c]);
        if (a->rows) {
            memcpy(a->current + a->order[k] * width, out, width * sizeof(double));
            if (fi[k] < m)
                a->slots[a->frame_index * a->stride + a->order[k]] = a->used + fi[k];
        }
    }
    memcpy(a->merged + steps * width, a->result + s * width, width * sizeof(double));
    if (a->rows)
        memcpy(a->rows + a->used * width, a->frame, m * width * sizeof(double));
}

/* The alignment of combiner.align and, when merged is set, the rest of
   CombinerState.absorb (see struct fs_absorb_args): the costs and the
   table as fs_gld computes them, the path as trace reads it, then, only
   when the cost is finite, the merged rows old + factor * (new - old)
   followed by the empty row, the new row-id order (rows a step inserts
   take the next free ids, in order), and the store write: the frame's m
   rows appended at used, and frame_index's slot of the row id each frame
   row merged into pointed at it, and every merged row copied to current
   by its row id.  Returns the number of steps; FS_NO_PATH (a NaN cost),
   FS_NO_MEMORY, or FS_NO_ROOM, with nothing written, when the store has
   no room for frame frame_index, its m rows or m new row ids. */
CLONED int64_t fs_absorb(struct fs_absorb_args *a)
{
    const int64_t s = a->s, m = a->m, room = s + m;
    a->inserted = 0;
    if (a->merged && a->rows &&
        !(a->frame_index < a->frames && a->used + m <= a->capacity && a->next_id + m <= a->stride))
        return FS_NO_ROOM;
    const size_t doubles = (size_t)(s * m + room + (s + 1) * (m + 1));
    double *work = malloc(doubles * sizeof(double) + (a->path ? 0 : 2 * room * sizeof(int64_t)));
    if (!work)
        return FS_NO_MEMORY;
    double *table = work + s * m + room;
    int64_t *ri = a->path ? a->path : (int64_t *)(work + doubles), *fi = ri + room;
    a->cost = costs_and_table(a->result, s, a->frame, m, a->width, work, table);
    int64_t steps = trace(work, work + s * m, table, s, m, ri, fi);
    if (steps >= 0) {
        a->inserted = steps - s;
        if (a->merged && isfinite(a->cost))
            merge(a, ri, fi, steps);
    }
    free(work);
    return steps;
}

/* Sum over k < width of |a[k] - b[k]|, in four accumulators, the lanes
   of one vector, so consecutive additions do not wait on each other:
   lane j adds the terms k = j mod 4 of the whole groups of four, lane 0
   then the tail in order, and the lanes combine as (0+1)+(2+3). */
INLINE double row_distance(const double *a, const double *b, int64_t width)
{
    f64x4 lanes = {0.0, 0.0, 0.0, 0.0};
    int64_t k = 0;
    for (; k + 4 <= width; k += 4)
        lanes += ABS4(LOAD4(a + k) - LOAD4(b + k));
    double s0 = lanes[0];
    for (; k < width; k++)
        s0 += fabs(a[k] - b[k]);
    return (s0 + lanes[1]) + (lanes[2] + lanes[3]);
}

/* The history scan of methods a and b (see struct fs_absorb_args).  Per
   frame f < n, the spread: the sum over row ids r < s and classes of
   |current[r] - rows[slots[f * stride + r]]|, the distance from the
   current rows to what the frame merged into each of them.  rows has row
   0 the empty distribution, where every slot a frame did not write
   points, and every slot indexes a row below the capacity; the first s
   rows of current hold the current rows.

   First, empty[r] receives each current row's distance to the empty row,
   computed afresh on every call; a slot holding 0 then adds empty[r]
   instead of its width terms.  Every term is added, none subtracted, so a
   frame equal to the current rows gives exactly 0.

   out[f] is candidate f's distance: g = spread * share_f / 2, with
   share_f = shares[f], or share when shares is NULL, as stoppers scores
   method a's modelled merge; then, when length >= 0, its nGLD
   2g / (g + length), 0 where g + length is not positive, as
   metrics.normalized computes it.  g_sum receives the sum of the g and
   d_sum the sum of out, each added in frame order.  Returns 0;
   FS_NO_MEMORY, or FS_NO_ROOM, with nothing written, when n is above
   frames or s above stride. */
CLONED int64_t fs_spread(struct fs_absorb_args *a)
{
    const int64_t n = a->n, s = a->s, width = a->width, stride = a->stride;
    if (n > a->frames || s > stride)
        return FS_NO_ROOM;
    double *empty = malloc((size_t)s * sizeof(double));
    if (s && !empty)
        return FS_NO_MEMORY;
    const double *rows = a->rows, *current = a->current, *shares = a->shares;
    const double share = a->share, length = a->length;
    double *out = a->out;
    for (int64_t r = 0; r < s; r++)
        empty[r] = row_distance(rows, current + r * width, width);
    double g_sum = 0.0, out_sum = 0.0;
    for (int64_t f = 0; f < n; f++) {
        const int64_t *slot = a->slots + f * stride;
        double spread = 0.0;
        for (int64_t r = 0; r < s; r++)
            spread += slot[r] ? row_distance(rows + slot[r] * width, current + r * width, width)
                              : empty[r];
        const double g = spread * (shares ? shares[f] : share) / 2.0;
        double d = g;
        if (length >= 0.0) {
            const double denom = g + length;
            d = denom > 0.0 ? 2.0 * g / denom : 0.0;
        }
        out[f] = d;
        g_sum += g;
        out_sum += d;
    }
    free(empty);
    a->g_sum = g_sum;
    a->d_sum = out_sum;
    return 0;
}
