/* Compiled kernels of framestop, loaded through ctypes by _kernels.py.

   fs_fill and fs_trace are metrics.cost_table and the traceback of
   combiner.align, with the same IEEE operations in the same order, so
   their results are bit-identical to the Python loops; build without
   floating-point contraction (-ffp-contract=off) and without -ffast-math.
   fs_spread is CombinerState.spread; it sums in its own order. */

#include <math.h>
#include <stdint.h>

/* Backward GLD table: table[i*(m+1)+j] is the least cost of aligning rows
   i.. of the first sequence with rows j.. of the second.  sub is s*m, row
   major (unused when s or m is 0).  Returns table[0], the GLD. */
double fs_fill(const double *sub, const double *gap_rows, const double *gap_cols,
               int64_t s, int64_t m, double *table)
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

/* Path through a filled table, read from the front with the tie order
   MATCH > GAP_FRAME > GAP_COMBINED, recomputing each choice as fs_fill
   made it.  Writes one (result row, frame row) pair per step, s or m
   standing for the empty row a gap step pairs with; room for s + m steps.
   Returns the number of steps, or -1 when a step has no choice to take,
   which only a NaN in the costs brings about. */
int64_t fs_trace(const double *sub, const double *gap_rows, const double *table,
                 int64_t s, int64_t m, int64_t *result_rows, int64_t *frame_rows)
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
            return -1; /* no choice reproduces the cell: a NaN cost */
        }
        k++;
    }
    return k;
}

/* Sum of |a[i] - b[i]| over len entries, in four independent accumulators
   so consecutive additions do not wait on each other. */
static double l1(const double *a, const double *b, int64_t len)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t i = 0;
    for (; i + 4 <= len; i += 4) {
        s0 += fabs(a[i] - b[i]);
        s1 += fabs(a[i + 1] - b[i + 1]);
        s2 += fabs(a[i + 2] - b[i + 2]);
        s3 += fabs(a[i + 3] - b[i + 3]);
    }
    for (; i < len; i++)
        s0 += fabs(a[i] - b[i]);
    return (s0 + s1) + (s2 + s3);
}

/* Per frame, the sum over rows and classes of |current - what the frame
   merged into the row|.  blocks[b] is a (frames_per_block, widths[b],
   width) array of frames b*frames_per_block..; current is (s, width),
   indexed by row id.  Row ids at or past a block's width read as the
   empty row (1, 0, ..., 0) for its frames. */
void fs_spread(const double *const *blocks, const int64_t *widths, int64_t nblocks,
               int64_t frames_per_block, int64_t n, const double *current, int64_t s,
               int64_t width, double *out)
{
    for (int64_t b = 0; b < nblocks; b++) {
        const int64_t first = b * frames_per_block;
        const int64_t count = n - first < frames_per_block ? n - first : frames_per_block;
        const int64_t rows = widths[b] < s ? widths[b] : s;
        double tail = 0.0;
        for (int64_t r = rows; r < s; r++) {
            const double *c = current + r * width;
            tail += fabs(c[0] - 1.0);
            for (int64_t k = 1; k < width; k++)
                tail += fabs(c[k]);
        }
        const double *block = blocks[b];
        const int64_t stride = widths[b] * width;
        for (int64_t f = 0; f < count; f++)
            out[first + f] = l1(block + f * stride, current, rows * width) + tail;
    }
}
