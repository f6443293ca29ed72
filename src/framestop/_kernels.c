/* Compiled kernels of framestop: a CPython extension module, built and
   loaded by _kernels.py.

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
   methods a and b over the blocks-plus-slots history store: every
   candidate's distance and their sums in one call.  It reads each row
   id's current row from the combined result, through the inverse of the
   row-id order, and sums each frame's spread in its own order, in
   frame-wide accumulators that run over all of the frame's rows and
   combine once per frame; a slot holding the empty row adds that row's
   distance, computed once per call.
   fs_absorb and fs_spread take one struct, struct fs_absorb_args, which
   describes the history store once: its absorbed rows in blocks of equal
   power-of-two size, which are never moved, and the slots, each a global
   row index into them.
   The hot loops run on vectors of four doubles, each lane doing what the
   scalar code does in the same order, so they give the same bits on any
   instruction set.  In the substitution costs a lane is one cost: the
   frame rows are copied to lanes (transposed), and each of numpy's eight
   accumulators is a vector holding that accumulator of four (result row,
   frame row) pairs.  In a gap cost's sum and a row's distance to the
   empty row a lane is one accumulator of one row; in the scan each of a
   frame's four vectors holds the four accumulators of every fourth group
   of four classes, summed over all of its rows; in the merge a lane is
   one column.  On x86-64 ELF with glibc, the kernels are built twice, for
   AVX2 and for the baseline, and the dynamic loader picks one (CLONED);
   elsewhere the baseline build alone runs the same vector code.

   The kernels only compute: they allocate nothing, validate no argument
   and return only what they compute, the one failure being fs_absorb's
   FS_NO_PATH (a NaN cost).  The module's functions, gld, align, absorb
   and spread, are the METH_FASTCALL entry points at the end of this file,
   and do the rest.  They take the numpy arrays themselves and read them
   through the numpy C API, checking that each is an aligned C-contiguous
   ndarray of 8-byte floats or ints in the machine's byte order (read-only
   arrays are accepted where nothing is written).  They allocate the
   kernel's working memory (work_alloc), the table of the store's blocks
   (store, the one parser of blocks and slots) and, for spread, of each
   row id's current row (by_row_id), and the arrays absorb and spread
   return.  They derive every other argument from the arrays' shapes and
   data pointers, refuse a call the history store has no room for, run
   the kernel with the GIL released and build the Python result.  No
   address outlives a call. */

/* Python.h first, as it asks, then numpy's array API; their own structs
   have padding that -Wpadded would report, so the warning is off for them
   alone. */
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpadded"
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#pragma GCC diagnostic pop

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* An AVX2 clone and a baseline one of each kernel, the dynamic loader
   choosing through an ifunc, which needs an x86-64 ELF toolchain and
   glibc; elsewhere one baseline build.  AVX2 only: a target with FMA
   (fma, x86-64-v3) would be one flag away from fusing a multiply and an
   add, which rounds once where the reference rounds twice. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED static __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONED
#define CLONED static
#endif

/* Four doubles; every lane adds the same operands in the same order as
   the scalar code it stands for. */
typedef double f64x4 __attribute__((vector_size(32)));
typedef int64_t i64x4 __attribute__((vector_size(32)));

/* Functions called from a kernel are inlined into both clones.  A
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

/* SHUFFLE(a, b, i0, i1, i2, i3): lanes i0..i3 of a's lanes followed by b's */
#if defined(__clang__)
#define SHUFFLE(a, b, ...) __builtin_shufflevector(a, b, __VA_ARGS__)
#else
#define SHUFFLE(a, b, ...) __builtin_shuffle(a, b, (i64x4){__VA_ARGS__})
#endif

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

/* Sums in the order numpy's pairwise_sum adds a contiguous float64 axis
   (np.add.reduce): a plain loop from 0 below 8 terms; up to 128 terms, 8
   accumulators seeded with the first eight terms and combined as
   ((0+1)+(2+3))+((4+5)+(6+7)), then the tail added in order; above 128,
   the two parts summed apart, split at n/2 rounded down to a multiple of
   8.  The parts above 128 terms, lane_split and sum_abs_split, are not
   inlined, as they recurse, so they run the baseline build in either
   clone.

   lane_sums(x, t, stride, n, out): out[l], for each lane l < 4, receives
   the sum over k < n of |x[k] - t[k * stride + l]|, the distance of the
   row x to the row held in lane l of the lanes t (see to_lanes).  Each
   accumulator is a vector whose lane l is that accumulator of the sum of
   lane l, so every lane adds the same operands in the same order as a
   scalar sum of its own. */
#define TERM4(k) ABS4(x[k] - LOAD4(t + (k) * stride))
static void lane_split(const double *x, const double *t, int64_t stride, int64_t n, double *out);
INLINE void lane_sums(const double *x, const double *t, int64_t stride, int64_t n, double *out)
{
    if (n > 128) {
        lane_split(x, t, stride, n, out);
        return;
    }
    f64x4 sum = {0.0, 0.0, 0.0, 0.0};
    int64_t k = 0;
    if (n >= 8) {
        f64x4 r0 = TERM4(0), r1 = TERM4(1), r2 = TERM4(2), r3 = TERM4(3);
        f64x4 r4 = TERM4(4), r5 = TERM4(5), r6 = TERM4(6), r7 = TERM4(7);
        for (k = 8; k < n - n % 8; k += 8) {
            r0 += TERM4(k);
            r1 += TERM4(k + 1);
            r2 += TERM4(k + 2);
            r3 += TERM4(k + 3);
            r4 += TERM4(k + 4);
            r5 += TERM4(k + 5);
            r6 += TERM4(k + 6);
            r7 += TERM4(k + 7);
        }
        sum = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    }
    for (; k < n; k++)
        sum += TERM4(k);
    memcpy(out, &sum, sizeof sum);
}
static void lane_split(const double *x, const double *t, int64_t stride, int64_t n, double *out)
{
    int64_t half = n / 2;
    half -= half % 8;
    double lo[4], hi[4];
    lane_sums(x, t, stride, half, lo);
    lane_sums(x + half, t + half * stride, stride, n - half, hi);
    for (int l = 0; l < 4; l++)
        out[l] = lo[l] + hi[l];
}

/* sum_abs(a, n): the sum over k < n of |a[k]|, one row's, whose
   accumulators are the lanes of two vectors, 0-3 and 4-7. */
static double sum_abs_split(const double *a, int64_t n);
INLINE double sum_abs(const double *a, int64_t n)
{
    if (n > 128)
        return sum_abs_split(a, n);
    double res = 0.0;
    int64_t k = 0;
    if (n >= 8) {
        f64x4 lo = ABS4(LOAD4(a)), hi = ABS4(LOAD4(a + 4));
        for (k = 8; k < n - n % 8; k += 8) {
            lo += ABS4(LOAD4(a + k));
            hi += ABS4(LOAD4(a + k + 4));
        }
        res = ((lo[0] + lo[1]) + (lo[2] + lo[3])) + ((hi[0] + hi[1]) + (hi[2] + hi[3]));
    }
    for (; k < n; k++)
        res += fabs(a[k]);
    return res;
}
static double sum_abs_split(const double *a, int64_t n)
{
    int64_t half = n / 2;
    half -= half % 8;
    return sum_abs(a, half) + sum_abs(a + half, n - half);
}

/* n rounded up to whole groups of four lanes */
#define LANES4(n) (((n) + 3) / 4 * 4)

/* The count rows at rows, each of width doubles, as lanes: column c of
   row r goes to lanes[c * stride + r], and rows count.. up to the whole
   group of four are zeros.  Four rows and four columns at a time, a 4x4
   transpose in vectors. */
INLINE void to_lanes(const double *rows, int64_t count, int64_t width, double *lanes,
                     int64_t stride)
{
    const f64x4 zeros = {0.0, 0.0, 0.0, 0.0};
    for (int64_t r = 0; r < count; r += 4) {
        const double *r0 = rows + r * width;
        int64_t c = 0;
        for (; c + 4 <= width; c += 4) {
            const f64x4 v0 = LOAD4(r0 + c), v1 = r + 1 < count ? LOAD4(r0 + width + c) : zeros,
                        v2 = r + 2 < count ? LOAD4(r0 + 2 * width + c) : zeros,
                        v3 = r + 3 < count ? LOAD4(r0 + 3 * width + c) : zeros;
            const f64x4 lo01 = SHUFFLE(v0, v1, 0, 4, 2, 6), hi01 = SHUFFLE(v0, v1, 1, 5, 3, 7),
                        lo23 = SHUFFLE(v2, v3, 0, 4, 2, 6), hi23 = SHUFFLE(v2, v3, 1, 5, 3, 7);
            const f64x4 c0 = SHUFFLE(lo01, lo23, 0, 1, 4, 5), c1 = SHUFFLE(hi01, hi23, 0, 1, 4, 5),
                        c2 = SHUFFLE(lo01, lo23, 2, 3, 6, 7), c3 = SHUFFLE(hi01, hi23, 2, 3, 6, 7);
            memcpy(lanes + c * stride + r, &c0, sizeof c0);
            memcpy(lanes + (c + 1) * stride + r, &c1, sizeof c1);
            memcpy(lanes + (c + 2) * stride + r, &c2, sizeof c2);
            memcpy(lanes + (c + 3) * stride + r, &c3, sizeof c3);
        }
        for (; c < width; c++)
            for (int64_t l = 0; l < 4; l++)
                lanes[c * stride + r + l] = r + l < count ? r0[l * width + c] : 0.0;
    }
}

/* The costs of aligning the s rows x with the m rows y, each of width
   doubles, row major, in work (see work_alloc): sub (s*m) as
   metrics.pairwise_costs(x, y), then gap_rows (s) and gap_cols (m), which
   follow it, as metrics.gap_costs of x and of y, then the GLD table, of
   (s+1)*(m+1) doubles, filled over them, then y's rows as lanes from the
   next 32-byte boundary.  Returns the GLD.
   Each substitution cost is one lane of lane_sums over y's rows as lanes,
   four frame rows per vector; a last group of fewer than four pads its
   lanes with zero rows, whose sums are dropped. */
INLINE double costs_and_table(const double *x, int64_t s, const double *y, int64_t m,
                              int64_t width, double *work)
{
    double *sub = work, *gap_rows = sub + s * m, *gap_cols = gap_rows + s;
    double *table = gap_cols + m;
    /* 32-byte aligned, so no load of a group of four lanes splits a cache line */
    double *lanes = (double *)(((uintptr_t)(table + (s + 1) * (m + 1)) + 31) & ~(uintptr_t)31);
    const int64_t stride = LANES4(m);
    /* gap_cols follows gap_rows, and y's rows follow x's in the count */
    for (int64_t k = 0; k < s + m; k++) {
        const double *row = k < s ? x + k * width : y + (k - s) * width;
        gap_rows[k] = 0.5 * (sum_abs(row, width) - fabs(row[0]) + fabs(row[0] - 1.0));
    }
    to_lanes(y, m, width, lanes, stride);
    for (int64_t i = 0; i < s; i++)
        for (int64_t j = 0; j < m; j += 4) {
            double sums[4];
            lane_sums(x + i * width, lanes + j, stride, width, sums);
            if (j + 4 <= m) {
                const f64x4 costs = 0.5 * LOAD4(sums);
                memcpy(sub + i * m + j, &costs, sizeof costs);
            } else {
                for (int64_t l = 0; j + l < m; l++)
                    sub[i * m + j + l] = 0.5 * sums[l];
            }
        }
    return fill(sub, gap_rows, gap_cols, s, m, table);
}

/* metrics.gld of the s rows x and the m rows y, each of width doubles,
   row major, in the working memory work (see costs_and_table).  Returns
   the GLD. */
CLONED double fs_gld(const double *x, int64_t s, const double *y, int64_t m, int64_t width,
                     double *work)
{
    return costs_and_table(x, s, y, m, width, work);
}

/* What trace and fs_absorb return when no path exists */
enum { FS_NO_PATH = -1 };

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

/* A row id's current row, and the scan's room for its distance to the
   empty row */
struct fs_row {
    const double *current;
    double empty;
};

/* The arguments of fs_absorb and fs_spread, filled by the entry points
   from the arrays they are given, which have checked that every array
   and the store hold what the kernel reads and writes. */
struct fs_absorb_args {
    /* The alignment of the m frame rows against the s result rows, each
       of width doubles, row major, in the working memory work; path, room
       for 2 (s + m) entries, receives the path: the result rows at 0, the
       frame rows at s + m.  cost is an output. */
    const double *result;
    int64_t s;
    const double *frame;
    int64_t m;
    int64_t width;
    double *work;
    int64_t *path;
    double cost;
    /* The merge, skipped when merged is NULL.  result and frame are each
       followed by the empty row (s + 1 and m + 1 rows); merged has room
       for s + m + 1 rows and order for s + m entries, of which the first s
       hold the result rows' ids in display order on entry. */
    double factor;
    double *merged;
    int64_t *order;
    /* The history store, skipped by fs_absorb when blocks is NULL: rows
       in blocks of 2^shift rows of width doubles, capacity rows in all,
       global row g being row g & (2^shift - 1) of blocks[g >> shift]
       (store_row), of which used are in use; and slots (frames, stride),
       each a global row index. */
    double **blocks;
    int64_t shift;
    int64_t used;
    int64_t capacity;
    int64_t *slots;
    int64_t frame_index;
    int64_t frames;
    int64_t stride;
    /* The scan of fs_spread over the first n frames and the s current
       rows, row id r's at by_id[r].current: shares is NULL or one merge
       share per frame, else share is every frame's; length is the nGLD
       length sum, negative for GLD.  out, room for n entries, and the two
       sums are outputs. */
    struct fs_row *by_id;
    int64_t n;
    const double *shares;
    double share;
    double length;
    double *out;
    double g_sum;
    double d_sum;
};

/* Global row g of the history store blocks of 2^shift rows of width
   doubles */
INLINE double *store_row(double *const *blocks, int64_t shift, int64_t g, int64_t width)
{
    return blocks[g >> shift] + (g & (((int64_t)1 << shift) - 1)) * width;
}

/* The merge along the path of steps result rows ri and frame rows fi, and
   the store write; see fs_absorb. */
INLINE void merge(struct fs_absorb_args *a, const int64_t *ri, const int64_t *fi, int64_t steps)
{
    const int64_t s = a->s, m = a->m, width = a->width;
    const f64x4 factor = {a->factor, a->factor, a->factor, a->factor};
    /* the steps - s inserted rows take ids s.. in order; from the back, so
       order[ri[k]], with ri[k] <= k, is still the old id */
    int64_t new_id = steps;
    for (int64_t k = steps - 1; k >= 0; k--)
        a->order[k] = ri[k] < s ? a->order[ri[k]] : --new_id;
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
        if (a->blocks && fi[k] < m)
            a->slots[a->frame_index * a->stride + a->order[k]] = a->used + fi[k];
    }
    memcpy(a->merged + steps * width, a->result + s * width, width * sizeof(double));
    if (a->blocks)
        for (int64_t j = 0; j < m; j++)
            memcpy(store_row(a->blocks, a->shift, a->used + j, width), a->frame + j * width,
                   width * sizeof(double));
}

/* The alignment of combiner.align and, when merged is set, the rest of
   CombinerState.absorb (see struct fs_absorb_args): the costs and the
   table as fs_gld computes them, the path as trace reads it, then, only
   when the cost is finite, the merged rows old + factor * (new - old)
   followed by the empty row, the new row-id order (rows a step inserts
   take the ids s.., in order), and the store write: the frame's m rows
   appended at global row used, on into the next blocks where they reach
   the end of one, and frame_index's slot of the row id each frame row
   merged into pointed at it.  Returns the number of steps, or FS_NO_PATH
   (a NaN cost) with nothing merged. */
CLONED int64_t fs_absorb(struct fs_absorb_args *a)
{
    const int64_t s = a->s, m = a->m;
    int64_t *ri = a->path, *fi = ri + s + m;
    a->cost = costs_and_table(a->result, s, a->frame, m, a->width, a->work);
    const int64_t steps = trace(a->work, a->work + s * m, a->work + s * m + s + m, s, m, ri, fi);
    if (steps >= 0 && a->merged && isfinite(a->cost))
        merge(a, ri, fi, steps);
    return steps;
}

/* Sum over k < width of |a[k] - b[k]|, in four accumulators, the lanes
   of one vector, so consecutive additions do not wait on each other:
   lane j adds the terms k = j mod 4 of the whole groups of four, lane 0
   then the tail in order, and the lanes combine as (0+1)+(2+3).  The
   scan's distance from a current row to the empty row. */
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

/* The terms |x[k] - y[k]| of the group of four at k, added to acc */
#define GROUP4(acc, x, y, k) ((acc) += ABS4(LOAD4((x) + (k)) - LOAD4((y) + (k))))

/* The history scan of methods a and b (see struct fs_absorb_args).  Per
   frame f < n, the spread: the sum over row ids r < s and classes of
   |by_id[r].current - store_row(slots[f * stride + r])|, the distance
   from the current rows to what the frame merged into each of them.
   Global row 0 is the empty distribution, where every slot a frame did
   not write points, and every slot indexes a row below the capacity.
   The scan keeps the block of the last row it read, and looks a block up
   only for a row outside it: the rows a frame wrote are one run of global
   rows, and the frames come in absorb order, so the lookups are few.

   First, by_id[r].empty receives each current row's distance to the
   empty row (row_distance), computed afresh on every call.  Each frame
   then sums its terms in frame-wide accumulators, every one running over
   all of the frame's rows in row order: group c of four classes (k =
   4c..4c+3) of every row whose slot is not 0 goes to the vector
   acc(c mod 4), lane k mod 4; the classes past the last whole group to
   the scalar tail, k in order; and by_id[r].empty, for a slot holding 0,
   to the scalar gap.  They combine once per frame, as
   v = (acc0 + acc1) + (acc2 + acc3),
   then spread = (((v0 + v1) + (v2 + v3)) + tail) + gap.  Every term is
   added, none subtracted, so a frame equal to the current rows gives
   exactly 0.

   out[f] is candidate f's distance: g = spread * share_f / 2, with
   share_f = shares[f], or share when shares is NULL, as stoppers scores
   method a's modelled merge; then, when length >= 0, its nGLD
   2g / (g + length), 0 where g + length is not positive, as
   metrics.normalized computes it.  g_sum receives the sum of the g and
   d_sum the sum of out, each added in frame order. */
CLONED void fs_spread(struct fs_absorb_args *a)
{
    const int64_t n = a->n, s = a->s, width = a->width, stride = a->stride, shift = a->shift;
    double *const *blocks = a->blocks;
    struct fs_row *by_id = a->by_id;
    const double *shares = a->shares;
    const double share = a->share, length = a->length;
    const int64_t whole = width - width % 4, size = (int64_t)1 << shift;
    double *out = a->out;
    for (int64_t r = 0; r < s; r++)
        by_id[r].empty = row_distance(blocks[0], by_id[r].current, width);
    /* the block last read, base, whose first global row is first; none yet */
    const double *base = NULL;
    int64_t first = -size;
    double g_sum = 0.0, out_sum = 0.0;
    for (int64_t f = 0; f < n; f++) {
        const int64_t *slot = a->slots + f * stride;
        f64x4 acc0 = {0.0, 0.0, 0.0, 0.0}, acc1 = acc0, acc2 = acc0, acc3 = acc0;
        double tail = 0.0, gap = 0.0;
        for (int64_t r = 0; r < s; r++) {
            const int64_t row = slot[r];
            if (!row) {
                gap += by_id[r].empty;
                continue;
            }
            if ((uint64_t)(row - first) >= (uint64_t)size) {
                base = blocks[row >> shift];
                first = row >> shift << shift;
            }
            const double *x = base + (row - first) * width, *y = by_id[r].current;
            int64_t k = 0;
            for (; k + 16 <= whole; k += 16) {
                GROUP4(acc0, x, y, k);
                GROUP4(acc1, x, y, k + 4);
                GROUP4(acc2, x, y, k + 8);
                GROUP4(acc3, x, y, k + 12);
            }
            if (k < whole)
                GROUP4(acc0, x, y, k);
            if (k + 4 < whole)
                GROUP4(acc1, x, y, k + 4);
            if (k + 8 < whole)
                GROUP4(acc2, x, y, k + 8);
            for (k = whole; k < width; k++)
                tail += fabs(x[k] - y[k]);
        }
        const f64x4 v = (acc0 + acc1) + (acc2 + acc3);
        const double spread = (((v[0] + v[1]) + (v[2] + v[3])) + tail) + gap;
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
    a->g_sum = g_sum;
    a->d_sum = out_sum;
}

/* The module's entry points.  Each checks its arguments through the numpy
   C API, allocates its kernel's memory and the arrays it returns, derives
   every other argument of the kernel from their shapes and data pointers,
   runs the kernel with the GIL released and builds its result; no address
   outlives a call. */

/* obj as the array a kernel reads, or writes when writable is set: a
   numpy array of ndim dimensions of 8-byte floats when kind is 'f' and
   ints when it is 'i', C-contiguous, aligned for its type, as the kernels
   read it through double and int64_t pointers, and in the machine's byte
   order.  NULL with TypeError naming the argument when obj is not one. */
static PyArrayObject *take(PyObject *obj, int ndim, char kind, int writable, const char *name)
{
    const char *type = kind == 'f' ? "float64" : "int64";
    if (!PyArray_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a numpy array of %s, not %.100s", name, type,
                     Py_TYPE(obj)->tp_name);
        return NULL;
    }
    PyArrayObject *array = (PyArrayObject *)obj;
    PyArray_Descr *descr = PyArray_DESCR(array);
    const char *wrong = PyArray_NDIM(array) != ndim ? "of another dimension count"
                        : descr->kind != kind || PyArray_ITEMSIZE(array) != 8 ? "of another dtype"
                        : !PyArray_ISNOTSWAPPED(array)                        ? "byte-swapped"
                        : !PyArray_IS_C_CONTIGUOUS(array)                     ? "not C-contiguous"
                        : !PyArray_ISALIGNED(array)                           ? "unaligned"
                        : writable && !PyArray_ISWRITEABLE(array)             ? "read-only"
                                                                              : NULL;
    if (!wrong)
        return array;
    PyErr_Format(PyExc_TypeError,
                 "%s must be a %s%d-D aligned C-contiguous array of %s in native byte order, "
                 "not %s (%d-D, %R)",
                 name, writable ? "writable " : "", ndim, type, wrong, PyArray_NDIM(array), descr);
    return NULL;
}

/* Dimension d of the array a */
#define DIM(a, d) ((int64_t)PyArray_DIM(a, d))

/* obj as a non-negative integer in *out; -1 with an exception set if it
   is not one. */
static int count(PyObject *obj, int64_t *out, const char *name)
{
    const Py_ssize_t value = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < 0) {
        PyErr_Format(PyExc_ValueError, "%s must be non-negative, not %zd", name, value);
        return -1;
    }
    *out = value;
    return 0;
}

/* obj as a double in *out; -1 with an exception set, TypeError naming
   the argument if it is not a number. */
static int real(PyObject *obj, double *out, const char *name)
{
    *out = PyFloat_AsDouble(obj);
    if (*out != -1.0 || !PyErr_Occurred())
        return 0;
    if (PyErr_ExceptionMatches(PyExc_TypeError)) /* replaced by the one naming obj */
        PyErr_Format(PyExc_TypeError, "%s must be a real number, not %.100s", name,
                     Py_TYPE(obj)->tp_name);
    return -1;
}

/* 0 when fn() takes nargs arguments, least to most; else -1 with
   TypeError naming fn. */
static int arity(const char *fn, Py_ssize_t nargs, Py_ssize_t least, Py_ssize_t most)
{
    if (nargs >= least && nargs <= most)
        return 0;
    if (least == most)
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", fn, least, nargs);
    else
        PyErr_Format(PyExc_TypeError, "%s() takes %zd to %zd arguments (%zd given)", fn, least,
                     most, nargs);
    return -1;
}

/* 0 when ok holds; else -1 with ValueError naming what does not fit. */
static int shaped(int ok, const char *what)
{
    if (ok)
        return 0;
    PyErr_Format(PyExc_ValueError, "array shapes do not fit the kernel: %s", what);
    return -1;
}

/* 0 when ok, the history store's room for the call, holds; else -1 with
   RuntimeError, an internal error, as the state makes room first. */
static int room(int ok)
{
    if (ok)
        return 0;
    PyErr_SetString(PyExc_RuntimeError,
                    "internal error: the history store has no room for the call");
    return -1;
}

/* The width of the row sets x and y: x's, or y's when x has no rows.
   -1 with ValueError when both have rows of different widths, or rows of
   width 0. */
static int64_t row_width(PyArrayObject *x, PyArrayObject *y)
{
    const Py_ssize_t s = PyArray_DIM(x, 0), m = PyArray_DIM(y, 0), wx = PyArray_DIM(x, 1),
                     wy = PyArray_DIM(y, 1), width = s ? wx : wy;
    if ((s && m && wx != wy) || ((s || m) && !width)) {
        PyErr_Format(PyExc_ValueError, "rows of shapes (%zd, %zd) and (%zd, %zd) do not fit the kernel",
                     s, wx, m, wy);
        return -1;
    }
    return width;
}

/* The working memory of a kernel for s and m rows of width doubles: the
   substitution costs (s*m), the gap costs (s + m) and the table
   ((s+1)*(m+1)), 2 (s+1) (m+1) - 1 doubles in all, then the m rows as
   lanes, width * LANES4(m), from the next 32-byte boundary, up to 3
   doubles on (see costs_and_table), then fs_absorb's path, room for
   2 (s + m) int64s, at *path unless path is NULL.  NULL with MemoryError
   when its size overflows or it cannot be allocated.  Released with
   free. */
static double *work_alloc(int64_t s, int64_t m, int64_t width, int64_t **path)
{
    size_t cells, lanes, doubles = 0;
    if (!__builtin_mul_overflow((size_t)s + 1, (size_t)m + 1, &cells) &&
        !__builtin_mul_overflow((size_t)width, LANES4((size_t)m), &lanes) &&
        cells <= SIZE_MAX / 64 && lanes <= SIZE_MAX / 64)
        doubles = 2 * cells - 1 + 3 + lanes;
    double *work = doubles ? malloc((doubles + 2 * (size_t)(s + m)) * sizeof(double)) : NULL;
    if (!work)
        PyErr_NoMemory();
    else if (path)
        *path = (int64_t *)(work + doubles);
    return work;
}

/* The history store into a, whose width is set: blocks, a tuple of 2-D
   float64 arrays of rows of that width, the same power-of-two count of
   them each, and slots, a 2-D int64 array (frames, stride), all writable
   when writable is set.  a->blocks receives a new table of the blocks'
   data pointers, which the caller frees; a->shift, a->capacity (the rows
   of all blocks), a->slots, a->frames and a->stride the rest.  -1 with an
   exception set when they are not such arrays (TypeError naming the
   argument, ValueError for blocks of another shape), or when the table
   cannot be allocated. */
static int store(PyObject *blocks, PyObject *slots, int writable, struct fs_absorb_args *a)
{
    PyArrayObject *slot_array = take(slots, 2, 'i', writable, "slots");
    if (!slot_array)
        return -1;
    if (!PyTuple_Check(blocks)) {
        PyErr_Format(PyExc_TypeError, "blocks must be a tuple of numpy arrays, not %.100s",
                     Py_TYPE(blocks)->tp_name);
        return -1;
    }
    const Py_ssize_t size = PyTuple_GET_SIZE(blocks);
    double **table = malloc((size_t)(size + 1) * sizeof *table);
    if (!table) {
        PyErr_NoMemory();
        return -1;
    }
    int64_t rows = 0;
    for (Py_ssize_t b = 0; b < size; b++) {
        PyArrayObject *block = take(PyTuple_GET_ITEM(blocks, b), 2, 'f', writable, "blocks");
        if (block && !b)
            rows = DIM(block, 0);
        if (!block ||
            shaped(DIM(block, 0) == rows && DIM(block, 1) == a->width,
                   "blocks differ in shape or hold rows of another width") < 0 ||
            shaped(rows > 0 && !(rows & (rows - 1)), "blocks of a row count not a power of two") < 0) {
            free(table);
            return -1;
        }
        table[b] = PyArray_DATA(block);
    }
    a->blocks = table;
    a->shift = rows ? __builtin_ctzll((unsigned long long)rows) : 0;
    a->capacity = size * rows;
    a->slots = PyArray_DATA(slot_array);
    a->frames = DIM(slot_array, 0);
    a->stride = DIM(slot_array, 1);
    return 0;
}

/* Raises the ValueError of fs_absorb's FS_NO_PATH; returns NULL. */
static PyObject *no_path(void)
{
    PyErr_SetString(PyExc_ValueError, "alignment costs hold a NaN: rows must be finite");
    return NULL;
}

/* The tuple (a, b, c), taking the three references; NULL if one is. */
static PyObject *triple(PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *t = a && b && c ? PyTuple_New(3) : NULL;
    if (!t) {
        Py_XDECREF(a);
        Py_XDECREF(b);
        Py_XDECREF(c);
        return NULL;
    }
    PyTuple_SET_ITEM(t, 0, a);
    PyTuple_SET_ITEM(t, 1, b);
    PyTuple_SET_ITEM(t, 2, c);
    return t;
}

/* The n indices at v as a tuple of ints. */
static PyObject *indices(const int64_t *v, int64_t n)
{
    PyObject *t = PyTuple_New(n);
    for (int64_t k = 0; t && k < n; k++) {
        PyObject *i = PyLong_FromLongLong(v[k]);
        if (!i) {
            Py_CLEAR(t);
            break;
        }
        PyTuple_SET_ITEM(t, k, i);
    }
    return t;
}

/* gld(x, y[, work]): metrics.gld of the row sets x and y, 2-D float64
   arrays, from fs_gld.  work, a float64 array of 2 (S+1) (M+1) - 1
   entries or more, receives a copy of the costs and the table. */
static PyObject *py_gld(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    PyArrayObject *x, *y, *given = NULL;
    int64_t width, s, m;
    double *work, cost;
    if (arity("gld", nargs, 2, 3) < 0 || !(x = take(args[0], 2, 'f', 0, "x")) ||
        !(y = take(args[1], 2, 'f', 0, "y")) || (width = row_width(x, y)) < 0 ||
        !(work = work_alloc(s = DIM(x, 0), m = DIM(y, 0), width, NULL)))
        return NULL;
    if (nargs == 3 && (!(given = take(args[2], 1, 'f', 1, "work")) ||
                       shaped(DIM(given, 0) >= 2 * (s + 1) * (m + 1) - 1, "work too short") < 0)) {
        free(work);
        return NULL;
    }
    const double *xs = PyArray_DATA(x), *ys = PyArray_DATA(y);
    Py_BEGIN_ALLOW_THREADS
    cost = fs_gld(xs, s, ys, m, width, work);
    Py_END_ALLOW_THREADS
    if (given)
        memcpy(PyArray_DATA(given), work, (size_t)(2 * (s + 1) * (m + 1) - 1) * sizeof(double));
    free(work);
    return PyFloat_FromDouble(cost);
}

/* align(x, y): (result_rows, frame_rows, cost), the alignment
   combiner.align reads off between the result rows x and the frame rows y,
   2-D float64 arrays, from fs_absorb with no merge and no store: two
   tuples of one index per step, and the cost, which may be NaN or
   infinite. */
static PyObject *py_align(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    PyArrayObject *x, *y;
    int64_t steps;
    struct fs_absorb_args a = {.merged = NULL};
    if (arity("align", nargs, 2, 2) < 0 || !(x = take(args[0], 2, 'f', 0, "x")) ||
        !(y = take(args[1], 2, 'f', 0, "y")) || (a.width = row_width(x, y)) < 0 ||
        !(a.work = work_alloc(a.s = DIM(x, 0), a.m = DIM(y, 0), a.width, &a.path)))
        return NULL;
    a.result = PyArray_DATA(x);
    a.frame = PyArray_DATA(y);
    Py_BEGIN_ALLOW_THREADS
    steps = fs_absorb(&a);
    Py_END_ALLOW_THREADS
    PyObject *answer = steps < 0 ? no_path()
                                 : triple(indices(a.path, steps), indices(a.path + a.s + a.m, steps),
                                          PyFloat_FromDouble(a.cost));
    free(a.work);
    return answer;
}

/* Row id r's row of the s rows result, each of width doubles, as
   by_id[r].current in a new table of s + 1 entries, which the caller
   frees: the row at r's position among the first s entries of ids, which
   must be a permutation of 0..s-1.  NULL with ValueError when they are
   not one, or MemoryError. */
static struct fs_row *by_row_id(const int64_t *ids, int64_t s, const double *result,
                                int64_t width)
{
    struct fs_row *by_id = calloc((size_t)s + 1, sizeof *by_id);
    if (!by_id) {
        PyErr_NoMemory();
        return NULL;
    }
    for (int64_t p = 0; p < s; p++) {
        const int64_t r = ids[p];
        if (r < 0 || r >= s || by_id[r].current) {
            PyErr_Format(PyExc_ValueError, "ids: the first %lld are not a permutation of 0..%lld",
                         (long long)s, (long long)s - 1);
            free(by_id);
            return NULL;
        }
        by_id[r].current = result + p * width;
    }
    return by_id;
}

/* absorb(result, frame, factor, order, blocks, used, slots, frame_index):
   (steps, cost, merged) of fs_absorb merging the frame into the result
   with the share factor, the rows it inserts taking the ids S.., struct
   fs_absorb_args filled from the arrays' shapes.  result and frame,
   float64 (S+1, K+1) and (M+1, K+1), each end with the empty row; merged,
   a new float64 array of S+M+1 rows, holds the merge in its first
   steps + 1 rows; order, int64 with room for S+M ids, holds the result
   rows' ids on entry.  blocks, a tuple of float64 (2^shift, K+1) arrays
   with used rows in use, and slots (frames, stride) are the history store
   (see store), skipped, with used, slots and frame_index, when blocks is
   None; it must have room for frame frame_index, its M rows and S+M row
   ids. */
static PyObject *py_absorb(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    PyArrayObject *result, *frame, *order;
    PyObject *merged = NULL, *answer = NULL;
    int64_t steps;
    struct fs_absorb_args a = {.blocks = NULL};
    if (arity("absorb", nargs, 8, 8) < 0 || !(result = take(args[0], 2, 'f', 0, "result")) ||
        !(frame = take(args[1], 2, 'f', 0, "frame")) || real(args[2], &a.factor, "factor") < 0 ||
        !(order = take(args[3], 1, 'i', 1, "order")))
        return NULL;
    a.s = DIM(result, 0) - 1;
    a.m = DIM(frame, 0) - 1;
    a.width = DIM(result, 1);
    if (shaped(a.s >= 0 && a.m >= 0 && a.width > 0, "result and frame need the empty row") < 0 ||
        shaped(DIM(frame, 1) == a.width, "row widths differ") < 0 ||
        shaped(DIM(order, 0) >= a.s + a.m, "no room for the row ids") < 0 ||
        (args[4] != Py_None &&
         (count(args[5], &a.used, "used") < 0 || store(args[4], args[6], 1, &a) < 0 ||
          count(args[7], &a.frame_index, "frame_index") < 0 ||
          room(a.frame_index < a.frames && a.used + a.m <= a.capacity &&
               a.s + a.m <= a.stride) < 0)))
        goto done;
    npy_intp shape[2] = {a.s + a.m + 1, a.width};
    if (!(a.work = work_alloc(a.s, a.m, a.width, &a.path)) ||
        !(merged = PyArray_SimpleNew(2, shape, NPY_DOUBLE)))
        goto done;
    a.result = PyArray_DATA(result);
    a.frame = PyArray_DATA(frame);
    a.merged = PyArray_DATA((PyArrayObject *)merged);
    a.order = PyArray_DATA(order);
    Py_BEGIN_ALLOW_THREADS
    steps = fs_absorb(&a);
    Py_END_ALLOW_THREADS
    answer = steps < 0 ? no_path()
                       : triple(PyLong_FromLongLong(steps), PyFloat_FromDouble(a.cost),
                                Py_NewRef(merged));
done:
    Py_XDECREF(merged);
    free(a.work);
    free(a.blocks);
    return answer;
}

/* spread(blocks, slots, result, ids, n, share, length): (out, sum of g,
   sum of d) of fs_spread scanning the history store, blocks and slots
   (see store), over the first n frames against the current rows result,
   float64 (S, K+1), row id r's at the position of r among the first S
   entries of ids, which must be a permutation of 0..S-1 (by_row_id); out,
   a new float64 array of n entries, receives each candidate's d.  share
   is one merge share for every frame, or a float64 array of one per
   frame; length is the nGLD length sum, negative for GLD.  The store
   must hold n frames and S row ids, and a block when S is not 0. */
static PyObject *py_spread(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    PyArrayObject *result, *ids, *shares = NULL;
    PyObject *out = NULL, *answer = NULL;
    struct fs_absorb_args a = {.blocks = NULL};
    if (arity("spread", nargs, 7, 7) < 0 || !(result = take(args[2], 2, 'f', 0, "result")) ||
        !(ids = take(args[3], 1, 'i', 0, "ids")) || count(args[4], &a.n, "n") < 0 ||
        real(args[6], &a.length, "length") < 0)
        return NULL;
    if (!PyArray_Check(args[5])) {
        if (real(args[5], &a.share, "share") < 0)
            return NULL;
    } else if (!(shares = take(args[5], 1, 'f', 0, "share")) ||
               shaped(DIM(shares, 0) >= a.n, "fewer shares than frames") < 0) {
        return NULL;
    }
    a.s = DIM(result, 0);
    a.width = DIM(result, 1);
    if (shaped(DIM(ids, 0) >= a.s, "fewer ids than result rows") < 0 ||
        store(args[0], args[1], 0, &a) < 0 || /* fs_spread only reads the store */
        room(a.n <= a.frames && a.s <= a.stride && (!a.s || a.capacity)) < 0 ||
        !(a.by_id = by_row_id(PyArray_DATA(ids), a.s, PyArray_DATA(result), a.width)))
        goto done;
    a.shares = shares ? PyArray_DATA(shares) : NULL;
    npy_intp length = a.n;
    if (!(out = PyArray_SimpleNew(1, &length, NPY_DOUBLE)))
        goto done;
    a.out = PyArray_DATA((PyArrayObject *)out);
    Py_BEGIN_ALLOW_THREADS
    fs_spread(&a);
    Py_END_ALLOW_THREADS
    answer = triple(out, PyFloat_FromDouble(a.g_sum), PyFloat_FromDouble(a.d_sum));
done:
    free(a.by_id);
    free(a.blocks);
    return answer;
}

#define ENTRY(name, doc) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    ENTRY(gld, "gld(x, y[, work]) -> the GLD of two row sets"),
    ENTRY(align, "align(x, y) -> (result_rows, frame_rows, cost)"),
    ENTRY(absorb, "absorb(result, frame, factor, order, blocks, used, slots, frame_index) -> "
                  "(steps, cost, merged)"),
    ENTRY(spread, "spread(blocks, slots, result, ids, n, share, length) -> (out, g_sum, d_sum)"),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_compiled",
    .m_doc = "framestop's compiled kernels; see _kernels.c and framestop._kernels.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__compiled(void)
{
    import_array();
    return PyModuleDef_Init(&module);
}
