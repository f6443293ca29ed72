/* Compiled kernels of framestop, loaded through ctypes by _kernels.py.

   fs_fill and fs_trace are metrics.cost_table and the traceback of
   combiner.align, with the same IEEE operations in the same order, so
   their results are bit-identical to the Python loops; build without
   floating-point contraction (-ffp-contract=off) and without -ffast-math.
   fs_gld is metrics.gld in one call: it computes the substitution and gap
   costs as metrics.pairwise_costs and metrics.gap_costs do, summing in
   numpy's pairwise order, and fills the table with fs_fill; the loader
   checks its costs against numpy's bit for bit before gld uses it.
   fs_spread is the one history scan of methods a and b over the
   rows-plus-slots history store: CombinerState.spread, and with its
   epilogue CombinerState.candidate_gld, every candidate's distance and
   their sums in one call.  It sums in its own order, and a slot holding
   the empty row adds that row's distance, computed once per call. */

#include <math.h>
#include <stddef.h>
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

/* NAME(a, b, n) sums TERM(i) over i = 0..n-1 in the order numpy's
   pairwise_sum adds a contiguous float64 axis (np.add.reduce): a plain
   loop from 0 below 8 terms; up to 128 terms, 8 lanes seeded with the
   first eight terms and combined as ((0+1)+(2+3))+((4+5)+(6+7)), then the
   tail added in order; above 128, the two parts summed apart, split at
   n/2 rounded down to a multiple of 8. */
#define PAIRWISE(NAME, TERM)                                                  \
    static double NAME(const double *a, const double *b, int64_t n)          \
    {                                                                         \
        (void)b;                                                              \
        if (n < 8) {                                                          \
            double res = 0.0;                                                 \
            for (int64_t i = 0; i < n; i++)                                   \
                res += TERM(i);                                               \
            return res;                                                       \
        }                                                                     \
        if (n <= 128) {                                                       \
            double r[8];                                                      \
            for (int64_t k = 0; k < 8; k++)                                   \
                r[k] = TERM(k);                                               \
            int64_t i = 8;                                                    \
            for (; i < n - n % 8; i += 8)                                     \
                for (int64_t k = 0; k < 8; k++)                               \
                    r[k] += TERM(i + k);                                      \
            double res = ((r[0] + r[1]) + (r[2] + r[3])) +                    \
                         ((r[4] + r[5]) + (r[6] + r[7]));                     \
            for (; i < n; i++)                                                \
                res += TERM(i);                                               \
            return res;                                                       \
        }                                                                     \
        int64_t half = n / 2;                                                 \
        half -= half % 8;                                                     \
        return NAME(a, b, half) + NAME(a + half, b ? b + half : b, n - half); \
    }

#define ABS_DIFF(i) fabs(a[i] - b[i])
#define ABS(i) fabs(a[i])
PAIRWISE(sum_abs_diff, ABS_DIFF)
PAIRWISE(sum_abs, ABS)

/* metrics.gld of the s rows x and the m rows y, each of width doubles,
   row major.  work holds s*m + s + m + (s+1)*(m+1) doubles: it receives
   the substitution costs (s*m, as metrics.pairwise_costs(x, y)), the gap
   costs of x and of y (as metrics.gap_costs), then the table of fs_fill.
   Returns the GLD. */
double fs_gld(const double *x, int64_t s, const double *y, int64_t m, int64_t width,
              double *work)
{
    double *sub = work, *gap_rows = sub + s * m, *gap_cols = gap_rows + s;
    double *table = gap_cols + m;
    /* gap_cols follows gap_rows, and y's rows follow x's in the count */
    for (int64_t k = 0; k < s + m; k++) {
        const double *row = k < s ? x + k * width : y + (k - s) * width;
        gap_rows[k] = 0.5 * (sum_abs(row, NULL, width) - fabs(row[0]) + fabs(row[0] - 1.0));
    }
    for (int64_t i = 0; i < s; i++)
        for (int64_t j = 0; j < m; j++)
            sub[i * m + j] = 0.5 * sum_abs_diff(x + i * width, y + j * width, width);
    return fs_fill(sub, gap_rows, gap_cols, s, m, table);
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

/* Sum over k < width of |a[k] - b[k]|, in four independent accumulators
   so consecutive additions do not wait on each other. */
static double row_distance(const double *a, const double *b, int64_t width)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t k = 0;
    for (; k + 4 <= width; k += 4) {
        s0 += fabs(a[k] - b[k]);
        s1 += fabs(a[k + 1] - b[k + 1]);
        s2 += fabs(a[k + 2] - b[k + 2]);
        s3 += fabs(a[k + 3] - b[k + 3]);
    }
    for (; k < width; k++)
        s0 += fabs(a[k] - b[k]);
    return (s0 + s1) + (s2 + s3);
}

/* The history scan of methods a and b.  Per frame f < n, the spread: the
   sum over row ids r < s and classes of |current[r] - rows[slots[f *
   stride + r]]|, the distance from the current rows to what the frame
   merged into each of them.  rows is (capacity, width) with row 0 the
   empty distribution, where every slot a frame did not write points;
   slots is (frames, stride) with s <= stride and every entry below the
   capacity; current is (s, width), indexed by row id.

   First, empty[r] receives each current row's distance to the empty row,
   computed afresh on every call; a slot holding 0 then adds empty[r]
   instead of its width terms.  Every term is added, none subtracted, so a
   frame equal to the current rows gives exactly 0.

   When sums is NULL, out[f] is the spread.  Otherwise out[f] is candidate
   f's distance: g = spread * share_f / 2, with share_f = shares[f], or
   share when shares is NULL, as stoppers scores method a's modelled merge;
   then, when length >= 0, its nGLD 2g / (g + length), 0 where g + length
   is not positive, as metrics.normalized computes it.  sums[0] receives
   the sum of the g and sums[1] the sum of out, each added in frame order. */
void fs_spread(const double *rows, const int64_t *slots, int64_t stride, int64_t n,
               const double *current, int64_t s, int64_t width, double *empty, double *out,
               const double *shares, double share, double length, double *sums)
{
    for (int64_t r = 0; r < s; r++)
        empty[r] = row_distance(rows, current + r * width, width);
    double g_sum = 0.0, out_sum = 0.0;
    for (int64_t f = 0; f < n; f++) {
        const int64_t *slot = slots + f * stride;
        double spread = 0.0;
        for (int64_t r = 0; r < s; r++)
            spread += slot[r] ? row_distance(rows + slot[r] * width, current + r * width, width)
                              : empty[r];
        if (sums == NULL) {
            out[f] = spread;
            continue;
        }
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
    if (sums != NULL) {
        sums[0] = g_sum;
        sums[1] = out_sum;
    }
}
