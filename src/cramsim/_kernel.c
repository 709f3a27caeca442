/* The package's compiled kernels, built into one shared library by _ckernel.py.
 *
 * cramsim_restore runs a whole restoration (each pulse loads bits, diffuses
 * and senses them again, tile by tile; when only the bits are wanted, a
 * charge bound decides most tiles, and every tile is in doubt where the
 * bound does not apply), and cramsim_search the alternating-projection
 * region search: one call per pipeline stage. Each takes only
 * scalars and the caller's buffers (the search's line detector is one trip
 * count), and gives exactly the results of its numpy kernel, which stays as
 * the fallback for hosts without a compiler.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* Explicit diffusion substeps over _Stencil's flat, zero-bordered buffers.
 *
 * Each buffer holds a rows x cols grid inside a one-cell border of zeros,
 * row width wp = cols + 2. A substep writes every interior cell of nxt as
 *     v + c * (((N + S) + (W + E)) - k * v)
 * with k the cell's in-grid neighbour count, in exactly the grouping of the
 * numpy kernel in diffusion.py, so both give the same bits. That needs
 * -ffp-contract=off (no fused multiply-add) and no -ffast-math. The border
 * is never written, so it stays 0 and the outer edge reflects. The buffers
 * swap roles after each substep: after an odd count the result is in nxt.
 *
 * Each variant at the end of this part inlines this one body; only the
 * vector width the compiler may use differs, never the arithmetic.
 */
#define BODY static inline __attribute__((always_inline))

/* One substep of grid row r (1 to rows) over the buffer columns j0 to j1 (1
 * to cols): each edge column in the span at its own k, and the columns
 * between them in one branch-free loop at the row's k. Each cell is written
 * once; with the edge columns written after that loop instead, the whole-grid
 * train ran about 10% slower. */
BODY void row_substep(const double *restrict cur, double *restrict nxt, long r, long j0, long j1,
                      long rows, long cols, double c)
{
    const long wp = cols + 2;
    const double kr = 4.0 - (r == 1) - (r == rows);
    const double ke = cols == 1 ? kr - 2.0 : kr - 1.0;
    const double *v = cur + r * wp;
    double *out = nxt + r * wp;
    if (j0 == 1)
        out[1] = v[1] + c * (((v[1 - wp] + v[1 + wp]) + (v[0] + v[2])) - ke * v[1]);
    const long lo = j0 > 2 ? j0 : 2, hi = j1 < cols - 1 ? j1 : cols - 1;
    for (long j = lo; j <= hi; j++)
        out[j] = v[j] + c * (((v[j - wp] + v[j + wp]) + (v[j - 1] + v[j + 1])) - kr * v[j]);
    if (j1 == cols && cols > 1)
        out[cols] = v[cols]
            + c * (((v[cols - wp] + v[cols + wp]) + (v[cols - 1] + v[cols + 1])) - ke * v[cols]);
}

/* out[j] = cell[j] > vth for n cells. gcc 12 leaves the plain loop scalar for
 * SSE2 (doubles to bytes), so with SSE2 16 cells at a time are compared in pairs
 * and the 64-bit masks packed down to bytes: the same bits, about twice as fast
 * in the baseline build and no slower in the AVX-512F one. */
BODY void threshold(const double *restrict cell, unsigned char *restrict out, long n, double vth)
{
    long j = 0;
#ifdef __SSE2__
    const __m128d t = _mm_set1_pd(vth);
    for (; j + 16 <= n; j += 16) {
        __m128i m[8];
        for (int k = 0; k < 8; k++)
            m[k] = _mm_castpd_si128(_mm_cmpgt_pd(_mm_loadu_pd(cell + j + 2 * k), t));
        const __m128i bytes = _mm_packs_epi16( /* 0 or -1 per cell */
            _mm_packs_epi16(_mm_packs_epi32(m[0], m[1]), _mm_packs_epi32(m[2], m[3])),
            _mm_packs_epi16(_mm_packs_epi32(m[4], m[5]), _mm_packs_epi32(m[6], m[7])));
        _mm_storeu_si128((__m128i *)(out + j), _mm_and_si128(bytes, _mm_set1_epi8(1)));
    }
#endif
    for (; j < n; j++)
        out[j] = cell[j] > vth;
}

/* The restore. Each pulse loads a bit plane, diffuses it and senses the
 * frame's cells, tile by tile. When only the bits are wanted, a charge
 * bound decides most tiles, and the substeps run only where a bit is still
 * in doubt.
 *
 * The bound. One pulse of S substeps at coupling c leaves each cell x at
 * v(x) = sum over cells p of G(x, p) b(p), b the loaded bits. A substep is
 * symmetric with nonnegative weights (c <= 0.25) and rows that sum to 1, so
 * G is too, and G(x, p) is 0 unless p lies within S cells of x. By the
 * method of images, G(x, p) <= m(x) g(k), k the Chebyshev distance from x
 * to p: g(k) is the most that the free-space S-substep kernel gives at a
 * distance of k or more (free_peaks), and m(x) is 1, 2 or 4, a factor 2 on
 * each axis where x lies within S of a reflecting edge, whose image of p is
 * no nearer to x than p. That holds when both grid sides are at least
 * 2S + 2, so that no more than one image per axis is in reach. Summed over
 * the 1s, then over the 0s, of b around x (ring cells count as 0s):
 *     m(x) sum over 1s of g(k) >= v(x) >= 1 - m(x) sum over 0s of g(k).
 * The bit is 0 if the left side is below vth, and 1 if the right side is
 * above it, each by a margin delta = 1e-12 (S + 1) added to g and to vth,
 * far above the reference's rounding of a few ulps per substep. With no 1
 * in reach it is 0, as v(x) is exactly 0.0, and with no 0 it is 1.
 *
 * The grid is cut into TILE_ROWS x TILE_COLS tiles, and the bound is taken
 * per tile: g(k) at the fewest cells between two tiles, and m at the most
 * of any cell. A tile is decided if the bound fixes the bits of all its
 * frame cells, else undecided. The substep s of S (counted from 1) then
 * runs only on the tiles within S - s cells of an undecided tile, and the
 * pulse's bit plane is loaded only on those within S. Every other cell
 * holds a stale value, which moves one cell per substep and so never
 * reaches an undecided cell. The undecided cells are sensed at vth, and the
 * decided ones written whole.
 *
 * Where the bound does not apply, every tile is in doubt: at level 0, so
 * that each pulse loads, diffuses and senses every cell. That is where the
 * analog grid is wanted, there is no diffusion (c = 0, taken as S = 0), S is
 * under LEAST_SUBSTEPS, a grid side is under 2S + 2, or free_peaks cannot
 * allocate.
 */
enum { TILE_ROWS = 4, TILE_COLS = 8, UNDECIDED = 2 };

static inline long clamp(long x, long lo, long hi)
{
    return x < lo ? lo : x > hi ? hi : x;
}

/* The fewest cells between two tiles whose indices on an axis of tiles of
 * size cells differ by d. */
static inline long tile_gap(long d, long size)
{
    d = d < 0 ? -d : d;
    return d ? size * d - (size - 1) : 0;
}

enum { KEPT_SUBSTEPS = 64 };

/* g(k) of the bound for k = 0 to S, into g; -1 if there is no room. One
 * unit charge starts at the center of a (2S + 1)^2 grid, whose edge it
 * reaches only on the last substep, where the edge changes nothing. Each
 * thread keeps its last g of at most KEPT_SUBSTEPS substeps for the next
 * call at the same c and S. */
static int free_peaks(double c, long S, double *g)
{
    static _Thread_local double kept_c, kept_g[KEPT_SUBSTEPS + 1];
    static _Thread_local long kept_S;
    if (S == kept_S && c == kept_c) {
        memcpy(g, kept_g, (size_t)(S + 1) * sizeof *g);
        return 0;
    }
    const long n = 2 * S + 1, wp = n + 2;
    double *const grids = calloc(2 * (size_t)(wp * wp), sizeof *grids);
    if (grids == NULL)
        return -1;
    double *cur = grids, *nxt = grids + wp * wp;
    cur[(S + 1) * wp + S + 1] = 1.0;
    for (long s = 0; s < S; s++) {
        for (long r = 1; r <= n; r++)
            row_substep(cur, nxt, r, 1, n, n, n, c);
        double *t = cur;
        cur = nxt;
        nxt = t;
    }
    const double *v = cur;
    for (long k = 0; k <= S; k++)
        g[k] = 0.0;
    for (long r = 0; r < n; r++)
        for (long j = 0; j < n; j++) {
            const long dr = r > S ? r - S : S - r, dj = j > S ? j - S : S - j;
            double *peak = g + (dr > dj ? dr : dj);
            if (v[(r + 1) * wp + j + 1] > *peak)
                *peak = v[(r + 1) * wp + j + 1];
        }
    for (long k = S; k > 0; k--) /* the most at k or more */
        if (g[k] > g[k - 1])
            g[k - 1] = g[k];
    free(grids);
    if (S <= KEPT_SUBSTEPS) {
        memcpy(kept_g, g, (size_t)(S + 1) * sizeof *g);
        kept_c = c;
        kept_S = S;
    }
    return 0;
}

/* The tiles' shape, and the scratch of the restore. Tile (b, u) is band b
 * (a row of tiles), column u. The per-tile arrays hold the bands inside a
 * padding of reach_r bands above and below and reach_c columns on either
 * side, where ones, zeros and m are 0 and no tile is undecided, so that an
 * offset in reach is one shift of a whole array: tile (b, u) is at
 * at(t, b) + u. A tile's reach is the tiles at most reach_r bands and
 * reach_c columns from it; both are 0 where the bound is not taken. */
typedef struct {
    long rows, cols, bands, across, S, reach_r, reach_c, stride, tiles;
    double *weight;       /* g + delta at each offset in reach, band-major */
    double *ones, *zeros; /* per tile: its frame's 1s; its grid cells less those */
    double *m;            /* per tile: m of the bound, or 0 if it holds no frame cell */
    int32_t *level;       /* per tile: fewest cells to an undecided tile, or S + 1 past S */
    int32_t *row_level;   /* per tile: the same, within its band only */
    int32_t *nearest;     /* per band: its least level */
    unsigned char *state; /* per tile: the bits the bound fixes, 0 or 1, or UNDECIDED */
    unsigned char *sum;   /* per grid column: the 1s of one band's frame rows */
} Tiles;

static inline long at(const Tiles *t, long b)
{
    return (b + t->reach_r) * t->stride + t->reach_c;
}

enum { CHUNK = 256 }; /* tiles whose sums decide stays on, in L1 */

/* up += weight ones and down += weight zeros, over n tiles. */
BODY void accumulate(double *restrict up, double *restrict down, const double *restrict ones,
                     const double *restrict zeros, double weight, long n)
{
    for (long j = 0; j < n; j++) {
        up[j] += weight * ones[j];
        down[j] += weight * zeros[j];
    }
}

/* The states of n tiles from their bounds' sums; returns the undecided count. */
BODY long settle(unsigned char *restrict state, const double *restrict m, const double *restrict up,
                 const double *restrict down, double vth, double delta, long n)
{
    long undecided = 0;
    for (long j = 0; j < n; j++) {
        const int zero = (m[j] == 0.0) | (up[j] == 0.0) | (m[j] * up[j] < vth - delta);
        const int one = (down[j] == 0.0) | (1.0 - m[j] * down[j] > vth + delta);
        const int doubt = !(zero | one);
        state[j] = (unsigned char)(doubt ? UNDECIDED : !zero);
        undecided += doubt;
    }
    return undecided;
}

/* Decide every tile from in, the frame's h x w bits, one byte each: state
 * 0 or 1 where the bound fixes the bits of all its frame cells, else
 * UNDECIDED. Returns the undecided count. */
BODY long decide(Tiles *t, const unsigned char *in, long h, long w, long ring, double vth,
                 double delta)
{
    const long across = t->across;
    for (long b = 0; b < t->bands; b++) {
        const long i0 = clamp(b * TILE_ROWS - ring, 0, h);
        const long i1 = clamp(b * TILE_ROWS + TILE_ROWS - ring, 0, h);
        const long height = clamp(t->rows - b * TILE_ROWS, 0, TILE_ROWS);
        unsigned char *restrict sum = t->sum + ring; /* its ring columns stay 0 */
        if (i0 < i1) {
            memcpy(sum, in + i0 * w, (size_t)w);
            for (long i = i0 + 1; i < i1; i++)
                for (long j = 0; j < w; j++)
                    sum[j] += in[i * w + j];
        }
        for (long u = 0; u < across; u++) {
            uint64_t word = 0;
            if (i0 < i1)
                memcpy(&word, t->sum + u * TILE_COLS, TILE_COLS);
            /* the word's bytes, each at most TILE_ROWS, add up in its top byte */
            const double ones = (double)((word * 0x0101010101010101u) >> 56);
            const long width = clamp(t->cols - u * TILE_COLS, 0, TILE_COLS);
            t->ones[at(t, b) + u] = ones;
            t->zeros[at(t, b) + u] = (double)(height * width) - ones;
        }
    }
    const long span = 2 * t->reach_c + 1, offsets = (2 * t->reach_r + 1) * span;
    long undecided = 0;
    for (long i = at(t, 0) - t->reach_c; i < at(t, t->bands) - t->reach_c; i += CHUNK) {
        const long n = clamp(at(t, t->bands) - t->reach_c - i, 0, CHUNK);
        double up[CHUNK], down[CHUNK];
        for (long j = 0; j < n; j++)
            up[j] = down[j] = 0.0;
        for (long o = 0; o < offsets; o++) {
            const double weight = t->weight[o];
            const long shift = (o / span - t->reach_r) * t->stride + o % span - t->reach_c;
            accumulate(up, down, t->ones + i + shift, t->zeros + i + shift, weight, n);
        }
        undecided += settle(t->state + i, t->m + i, up, down, vth, delta, n);
    }
    return undecided;
}

/* Level every tile, and find each band's least level; the box distance
 * splits into one pass along the bands and one across them. */
BODY void spread(Tiles *t)
{
    const long stride = t->stride, lo = at(t, 0) - t->reach_c, hi = at(t, t->bands) - t->reach_c;
    const int32_t far = (int32_t)(t->S + 1);
    int32_t *restrict row_level = t->row_level, *restrict level = t->level;
    for (long i = 0; i < t->tiles; i++)
        row_level[i] = level[i] = far;
    for (long dc = -t->reach_c; dc <= t->reach_c; dc++) {
        const int32_t gap = (int32_t)tile_gap(dc, TILE_COLS);
        const unsigned char *restrict state = t->state + dc;
        for (long i = lo; i < hi; i++)
            row_level[i] = state[i] == UNDECIDED && gap < row_level[i] ? gap : row_level[i];
    }
    for (long dr = -t->reach_r; dr <= t->reach_r; dr++) {
        const int32_t gap = (int32_t)tile_gap(dr, TILE_ROWS);
        const int32_t *restrict near = row_level + dr * stride;
        for (long i = lo; i < hi; i++) {
            const int32_t d = near[i] > gap ? near[i] : gap;
            level[i] = d < level[i] ? d : level[i];
        }
    }
    for (long b = 0; b < t->bands; b++) {
        int32_t least = far;
        for (long u = 0; u < t->across; u++)
            least = level[at(t, b) + u] < least ? level[at(t, b) + u] : least;
        t->nearest[b] = least;
    }
}

/* The next run [*u0, *u1) of a band's tiles at level d or less, from *u on;
 * 0 when there is none. */
static inline int next_run(const int32_t *level, long across, long d, long *u, long *u0, long *u1)
{
    while (*u < across && level[*u] > d)
        (*u)++;
    if (*u == across)
        return 0;
    *u0 = *u;
    while (*u < across && level[*u] <= d)
        (*u)++;
    *u1 = *u;
    return 1;
}

/* Load the bits in, the frame's h x w cells, one byte each, inside a ring
 * of zeros, into buf on the tiles at level S or less. The border stays 0. */
BODY void load(const Tiles *t, double *buf, const unsigned char *in, long h, long w, long ring)
{
    const long wp = t->cols + 2;
    for (long b = 0; b < t->bands; b++) {
        if (t->nearest[b] > t->S)
            continue;
        const long r0 = b * TILE_ROWS, r1 = clamp(r0 + TILE_ROWS, 0, t->rows);
        long u = 0, u0, u1;
        while (next_run(t->level + at(t, b), t->across, t->S, &u, &u0, &u1)) {
            /* grid columns [c0, c1): ring [c0, f0), frame [f0, f1), ring [f1, c1) */
            const long c0 = u0 * TILE_COLS, c1 = clamp(u1 * TILE_COLS, 0, t->cols);
            const long f0 = clamp(ring, c0, c1), f1 = clamp(ring + w, c0, c1);
            for (long r = r0; r < r1; r++) {
                double *g = buf + (r + 1) * wp + 1;
                const long i = r - ring;
                if (i < 0 || i >= h) {
                    memset(g + c0, 0, (size_t)(c1 - c0) * sizeof *g);
                    continue;
                }
                memset(g + c0, 0, (size_t)(f0 - c0) * sizeof *g);
                const unsigned char *px = in + i * w;
                for (long j = f0; j < f1; j++)
                    g[j] = px[j - ring];
                memset(g + f1, 0, (size_t)(c1 - f1) * sizeof *g);
            }
        }
    }
}

/* Run the S substeps, each on the tiles it must, from the plane in cur;
 * returns the buffer that holds the result. */
BODY double *diffuse(const Tiles *t, double *cur, double *nxt, double c)
{
    for (long d = t->S - 1; d >= 0; d--) {
        for (long b = 0; b < t->bands; b++) {
            if (t->nearest[b] > d)
                continue;
            const long r0 = b * TILE_ROWS, r1 = clamp(r0 + TILE_ROWS, 0, t->rows);
            long u = 0, u0, u1;
            while (next_run(t->level + at(t, b), t->across, d, &u, &u0, &u1)) {
                const long j1 = clamp(u1 * TILE_COLS, 0, t->cols);
                for (long r = r0; r < r1; r++)
                    row_substep(cur, nxt, r + 1, u0 * TILE_COLS + 1, j1, t->rows, t->cols, c);
            }
        }
        double *s = cur;
        cur = nxt;
        nxt = s;
    }
    return cur;
}

/* Write the frame's bits: the decided tiles' whole, and the undecided
 * tiles' sensed from grid at vth. */
BODY void sense(const Tiles *t, const double *grid, unsigned char *bits, long h, long w,
                long ring, double vth)
{
    const long wp = t->cols + 2;
    for (long b = 0; b < t->bands; b++) {
        const long i0 = clamp(b * TILE_ROWS - ring, 0, h);
        const long i1 = clamp(b * TILE_ROWS + TILE_ROWS - ring, 0, h);
        const unsigned char *state = t->state + at(t, b);
        for (long u0 = 0, u1 = 0; i0 < i1 && u0 < t->across; u0 = u1) {
            while (u1 < t->across && state[u1] == state[u0])
                u1++;
            const long f0 = clamp(u0 * TILE_COLS - ring, 0, w);
            const long f1 = clamp(u1 * TILE_COLS - ring, 0, w);
            for (long i = i0; i < i1 && f0 < f1; i++) {
                if (state[u0] == UNDECIDED)
                    threshold(grid + (i + ring + 1) * wp + ring + 1 + f0, bits + i * w + f0,
                              f1 - f0, vth);
                else
                    memset(bits + i * w + f0, state[u0], (size_t)(f1 - f0));
            }
        }
    }
}

/* The fewest substeps for which the bound is taken. With fewer, a tile's
 * reach, rounded up to whole tiles, holds many times the cells that a cell's
 * own window does, so the bound decides few tiles on a noisy frame: at 1 and
 * 2 substeps a noisy 320x240 frame took 121 and 117 us with the bound
 * against 82 and 119 us diffusing every cell (AVX-512F build). */
enum { LEAST_SUBSTEPS = 3 };

/* The restore of cramsim_restore, as above: returns 1 if analog and the
 * last pulse's grid is in nxt, else 0, or -1 with nothing written if the
 * tiles' scratch cannot be allocated. */
BODY long restore(const unsigned char *pixels, long h, long w, long ring, double *cur,
                  double *nxt, double c, long substeps, long pulses, double vth,
                  unsigned char *bits, long analog)
{
    const long S = c > 0.0 ? substeps : 0, rows = h + 2 * ring, cols = w + 2 * ring;
    int bound = !analog && S >= LEAST_SUBSTEPS && S <= (rows - 2) / 2 && S <= (cols - 2) / 2;
    const long reach = bound ? S : 0;
    Tiles t = {0};
    t.rows = rows;
    t.cols = cols;
    t.S = S;
    t.bands = (rows + TILE_ROWS - 1) / TILE_ROWS;
    t.across = (cols + TILE_COLS - 1) / TILE_COLS;
    t.reach_r = (reach + TILE_ROWS - 1) / TILE_ROWS;
    t.reach_c = (reach + TILE_COLS - 1) / TILE_COLS;
    t.stride = t.across + 2 * t.reach_c;
    t.tiles = (t.bands + 2 * t.reach_r) * t.stride;
    const long offsets = (2 * t.reach_r + 1) * (2 * t.reach_c + 1);
    const size_t doubles = (size_t)(reach + 1 + offsets + 3 * t.tiles);
    const size_t int32s = (size_t)(2 * t.tiles + t.bands);
    const size_t bytes = (size_t)(t.tiles + t.across * TILE_COLS);
    double *const g = malloc(doubles * sizeof(double) + int32s * sizeof(int32_t) + bytes);
    if (g == NULL)
        return -1;
    if (bound && free_peaks(c, S, g) != 0)
        bound = 0; /* the padding of reach S goes unused */
    t.weight = g + reach + 1;
    t.ones = t.weight + offsets;
    t.zeros = t.ones + t.tiles;
    t.m = t.zeros + t.tiles;
    t.level = (int32_t *)(t.m + t.tiles);
    t.row_level = t.level + t.tiles;
    t.nearest = t.row_level + t.tiles;
    t.state = (unsigned char *)(t.nearest + t.bands);
    t.sum = t.state + t.tiles;
    const double delta = 1e-12 * (double)(S + 1);
    if (bound) {
        /* the padding, and the sums' ring columns, stay 0 */
        memset(t.ones, 0, 3 * (size_t)t.tiles * sizeof *t.ones);
        memset(t.state, 0, bytes);
        for (long dr = -t.reach_r; dr <= t.reach_r; dr++)
            for (long dc = -t.reach_c; dc <= t.reach_c; dc++) {
                const long gr = tile_gap(dr, TILE_ROWS), gc = tile_gap(dc, TILE_COLS);
                t.weight[(dr + t.reach_r) * (2 * t.reach_c + 1) + dc + t.reach_c]
                    = g[gr > gc ? gr : gc] + delta;
            }
        for (long b = 0; b < t.bands; b++) {
            const long r0 = b * TILE_ROWS, r1 = clamp(r0 + TILE_ROWS, 0, rows) - 1;
            if (r1 < ring || r0 >= ring + h)
                continue;
            for (long u = 0; u < t.across; u++) {
                const long c0 = u * TILE_COLS, c1 = clamp(c0 + TILE_COLS, 0, cols) - 1;
                if (c1 >= ring && c0 < ring + w)
                    t.m[at(&t, b) + u] = (r0 <= S || r1 >= rows - 1 - S ? 2.0 : 1.0)
                                         * (c0 <= S || c1 >= cols - 1 - S ? 2.0 : 1.0);
            }
        }
    } else { /* every tile in doubt, at level 0 */
        memset(t.level, 0, int32s * sizeof *t.level);
        memset(t.state, UNDECIDED, (size_t)t.tiles);
    }
    const double *grid = cur;
    for (long p = 0; p < pulses; p++) {
        /* the pulse reads its bits before sense overwrites them */
        const unsigned char *in = p == 0 ? pixels : bits;
        if (!bound || decide(&t, in, h, w, ring, vth, delta) > 0) {
            if (bound)
                spread(&t);
            load(&t, cur, in, h, w, ring);
            grid = diffuse(&t, cur, nxt, c);
        }
        sense(&t, grid, bits, h, w, ring, vth);
    }
    free(g);
    return analog && grid != cur;
}

/* One build of the restore, compiled with the given function attributes. */
#define VARIANT(name, attributes)                                                             \
    attributes static long restore_##name(const unsigned char *pixels, long h, long w,       \
                                          long ring, double *cur, double *nxt, double c,     \
                                          long substeps, long pulses, double vth,            \
                                          unsigned char *bits, long analog)                  \
    {                                                                                         \
        return restore(pixels, h, w, ring, cur, nxt, c, substeps, pulses, vth, bits, analog); \
    }

VARIANT(baseline, )

/* The AVX-512F variant, compiled for 512-bit vectors whatever the build flags
 * say; cramsim_variants reports whether this CPU runs it. Elsewhere, or with
 * a compiler that cannot target one function at a time, the library holds
 * the baseline alone. A narrower x86-64 variant would run only on CPUs
 * without AVX-512F, where no gain of one has been measured. */
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target)
#define AVX512F_VARIANT
#endif
#endif

#ifdef AVX512F_VARIANT
VARIANT(avx512f, __attribute__((target("avx512f"))))
#endif

/* How many of the variants, in the order baseline, avx512f, this library
 * holds and this CPU runs: 1 or 2. */
long cramsim_variants(void)
{
#ifdef AVX512F_VARIANT
    if (__builtin_cpu_supports("avx512f"))
        return 2;
#endif
    return 1;
}

/* The whole restoration of diffusion.restore_image in one call, in variant
 * number variant.
 *
 * cur and nxt are the buffers of a _Stencil of (h + 2 ring) x (w + 2 ring)
 * cells, both with an all-zero border. Each of pulses pulses loads a bit
 * plane into cur inside a ring of zeros (first the h x w pixels, one byte
 * each, 0 or 1, then the bits the pulse before sensed), runs substeps
 * substeps at coupling c (none if c is 0), and senses the frame's cells
 * into bits, 1 byte each, set where the voltage exceeds vth.
 *
 * If analog is nonzero, every tile is in doubt, nxt is only ever written
 * by a substep, which sets every grid cell of it, and the call returns 1 if
 * the last pulse's analog grid is in nxt, else 0 (it is in cur). If analog
 * is 0, only the bits are wanted: most of them may come from the charge
 * bound, every tile is in doubt where it does not apply, the call returns
 * 0, and the grid cells of both buffers hold nothing of use. Either way the
 * call returns -1, with nothing written, if the tiles' scratch cannot be
 * allocated. The borders are never written.
 */
long cramsim_restore(long variant, const unsigned char *pixels, long h, long w, long ring,
                     double *cur, double *nxt, double c, long substeps, long pulses, double vth,
                     unsigned char *bits, long analog)
{
    /* variant number variant, or the baseline if this CPU cannot run it */
#ifdef AVX512F_VARIANT
    if (variant == 1 && cramsim_variants() == 2)
        return restore_avx512f(pixels, h, w, ring, cur, nxt, c, substeps, pulses, vth, bits,
                               analog);
#endif
    (void)variant;
    return restore_baseline(pixels, h, w, ring, cur, nxt, c, substeps, pulses, vth, bits,
                            analog);
}

/* The set pixels still inside a candidate: row, column and owning candidate. */
typedef struct {
    int32_t *row, *col, *owner;
    long n;
} Points;

/* A buffer that grows to what one pass of the search needs. Growing it
 * discards its contents, which no step reads back. */
typedef struct {
    void *p;
    size_t size;
} Scratch;

/* Room for size bytes, or NULL if it cannot be allocated. */
static void *room(Scratch *s, size_t size)
{
    if (s->p == NULL || size > s->size) {
        free(s->p);
        s->size = size > 0 ? size : 1;
        s->p = malloc(s->size);
    }
    return s->p;
}

/* One pass of the search: project every candidate onto one axis, split on its runs.
 *
 * cand holds n rows [r0, r1, c0, c1]; a is 0 to project onto rows and 2 onto
 * columns. The lines of all candidates are numbered one after another, so
 * candidate i's line x is line[shift[i] + x]. One sweep over the points
 * counts every line, a line trips if its count is at least fewest, and each
 * run of tripped lines inside one candidate becomes a candidate in out, with
 * the run as its extent on the projected axis; out keeps candidate order,
 * then line order, like the numpy kernel. The points on tripped lines move
 * to their run's candidate, the others drop out. Returns the number of
 * candidates in out, or -1 if a buffer cannot be allocated. As fewest is at
 * least 1, every run holds a point of its own: out needs at most one row per
 * line and one per point.
 */
static long project(const int32_t *cand, long n, int a, Points *pts, long fewest,
                    Scratch *shifts, Scratch *counts, Scratch *found)
{
    const int32_t *coord = a == 0 ? pts->row : pts->col;
    int64_t *shift = room(shifts, (size_t)n * sizeof *shift);
    if (shift == NULL)
        return -1;
    int64_t lines = 0;
    for (long i = 0; i < n; i++) {
        shift[i] = lines - cand[4 * i + a];
        lines += cand[4 * i + a + 1] - cand[4 * i + a] + 1;
    }
    const int64_t most = lines < pts->n ? lines : pts->n;
    int32_t *line = room(counts, (size_t)lines * sizeof *line);
    int32_t *out = room(found, (size_t)most * 4 * sizeof *out);
    if (line == NULL || out == NULL)
        return -1;
    memset(line, 0, (size_t)lines * sizeof *line);
    for (long p = 0; p < pts->n; p++)
        line[shift[pts->owner[p]] + coord[p]]++;
    long k = 0;
    for (long i = 0; i < n; i++) {
        int open = 0;
        for (int32_t x = cand[4 * i + a]; x <= cand[4 * i + a + 1]; x++) {
            int32_t *count = line + (shift[i] + x);
            if (*count < fewest) {
                open = 0;
                *count = -1;
                continue;
            }
            if (!open) {
                memcpy(out + 4 * k, cand + 4 * i, 4 * sizeof *out);
                out[4 * k + a] = x;
                k++;
                open = 1;
            }
            out[4 * (k - 1) + a + 1] = x;
            *count = (int32_t)(k - 1); /* from here on, the run this line belongs to */
        }
    }
    long m = 0;
    for (long p = 0; p < pts->n; p++) {
        const int32_t run = line[shift[pts->owner[p]] + coord[p]];
        if (run < 0)
            continue;
        pts->row[m] = pts->row[p];
        pts->col[m] = pts->col[p];
        pts->owner[m] = run;
        m++;
    }
    pts->n = m;
    return k;
}

/* The alternating-projection search of projection.iss over a rows x cols
 * C-contiguous frame, one byte per pixel, nonzero meaning set.
 *
 * Starting from the whole frame, each pass projects every candidate onto
 * rows, then columns, and so on, until no candidate is left, max_iters
 * passes have run, or a pass after the first keeps its candidate count.
 * A line trips when it holds at least fewest enabled 1s; fewest is at
 * least 1, as a line with none never trips. capacity is the number of set
 * pixels, and work has room for that many rows of 4 int32: it holds the set
 * pixels during the search, then the final candidates [r0, r1, c0, c1] in
 * pass order, candidate order then line order, as project makes them. info
 * receives the pass count, the region projections made (every candidate
 * projected but the whole frame), then the cells each pass sensed, so it
 * needs max_iters + 2 entries. The other buffers grow to what each pass
 * needs. Returns the number of candidates found, or -1, with nothing of use
 * in work and info, if fewest or max_iters is below 1, the frame is too
 * large for 32-bit coordinates, the pixels hold more than capacity set
 * pixels, or a buffer cannot be allocated.
 */
long cramsim_search(const unsigned char *pixels, long rows, long cols, long fewest,
                    long max_iters, long capacity, int32_t *work, int64_t *info)
{
    if (fewest < 1 || max_iters < 1 || rows < 1 || cols < 1 || capacity < 0
        || rows > INT32_MAX / cols)
        return -1;
    Points pts = {work, work + capacity, work + 2 * capacity, 0};
    for (long r = 0; r < rows; r++) {
        const unsigned char *px = pixels + r * cols;
        for (long c0 = 0; c0 < cols; c0 += 8) {
            const long c1 = c0 + 8 < cols ? c0 + 8 : cols;
            if (c1 - c0 == 8) {
                uint64_t word;
                memcpy(&word, px + c0, sizeof word);
                if (!word)
                    continue;
            }
            for (long c = c0; c < c1; c++) {
                if (!px[c])
                    continue;
                if (pts.n == capacity)
                    return -1;
                pts.row[pts.n] = (int32_t)r;
                pts.col[pts.n] = (int32_t)c;
                pts.owner[pts.n] = 0;
                pts.n++;
            }
        }
    }

    Scratch cur = {0}, nxt = {0}, shift = {0}, line = {0};
    const int32_t whole[4] = {0, (int32_t)rows - 1, 0, (int32_t)cols - 1};
    if (room(&cur, sizeof whole) == NULL)
        return -1;
    memcpy(cur.p, whole, sizeof whole);
    long n = 1, iterations = 0, projected = 0;
    while (n > 0 && iterations < max_iters) {
        const int a = iterations % 2 == 1 ? 2 : 0; /* rows first */
        const int32_t *c = cur.p;
        int64_t cells = 0;
        for (long i = 0; i < n; i++)
            cells += (int64_t)(c[4 * i + 1] - c[4 * i] + 1) * (c[4 * i + 3] - c[4 * i + 2] + 1);
        info[2 + iterations++] = cells;
        projected += n;
        const long found = project(c, n, a, &pts, fewest, &shift, &line, &nxt);
        const Scratch t = cur;
        cur = nxt;
        nxt = t;
        if (found == n && iterations > 1)
            break;
        n = found;
    }
    if (n > 0) /* the points are no longer needed, so the result goes to work */
        memcpy(work, cur.p, (size_t)n * 4 * sizeof *work);
    free(cur.p);
    free(nxt.p);
    free(shift.p);
    free(line.p);
    info[0] = iterations;
    info[1] = projected - 1; /* the whole frame's is the full-axis projection */
    return n;
}
