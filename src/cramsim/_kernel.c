/* The package's compiled kernels, built into one shared library by _ckernel.py.
 *
 * cramsim_restore runs a whole restoration (each pulse loads bits, diffuses
 * and senses them again), and cramsim_search the alternating-projection
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

BODY void substeps_body(double *restrict cur, double *restrict nxt, long rows, long cols,
                        double c, long substeps)
{
    const long wp = cols + 2;
    for (long s = 0; s < substeps; s++) {
        for (long r = 1; r <= rows; r++) {
            const double kr = 4.0 - (r == 1) - (r == rows);
            const double *v = cur + r * wp;
            double *out = nxt + r * wp;
            /* branch-free body at the row's k, then the two edge columns again */
            for (long j = 1; j <= cols; j++)
                out[j] = v[j] + c * (((v[j - wp] + v[j + wp]) + (v[j - 1] + v[j + 1])) - kr * v[j]);
            const double ke = cols == 1 ? kr - 2.0 : kr - 1.0;
            out[1] = v[1] + c * (((v[1 - wp] + v[1 + wp]) + (v[0] + v[2])) - ke * v[1]);
            out[cols] = v[cols]
                + c * (((v[cols - wp] + v[cols + wp]) + (v[cols - 1] + v[cols + 1])) - ke * v[cols]);
        }
        double *t = cur;
        cur = nxt;
        nxt = t;
    }
}

/* Load a bit plane into a stencil buffer: the frame's h x w cells from bits,
 * one byte each, inside a ring of zeros. Each grid row is written once; the
 * border stays 0. */
BODY void fill(double *buf, const unsigned char *bits, long h, long w, long ring)
{
    const long cols = w + 2 * ring, wp = cols + 2;
    for (long r = 0; r < h + 2 * ring; r++) {
        double *g = buf + (r + 1) * wp + 1;
        const long i = r - ring;
        if (i < 0 || i >= h) {
            memset(g, 0, (size_t)cols * sizeof *g);
            continue;
        }
        memset(g, 0, (size_t)ring * sizeof *g);
        const unsigned char *px = bits + i * w;
        for (long j = 0; j < w; j++)
            g[ring + j] = px[j];
        memset(g + ring + w, 0, (size_t)ring * sizeof *g);
    }
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

/* The whole restoration of diffusion.restore_image, substeps inlined; see cramsim_restore. */
BODY long restore_body(const unsigned char *pixels, long h, long w, long ring, double *cur,
                       double *nxt, double c, long substeps, long pulses, double vth,
                       unsigned char *bits)
{
    const long rows = h + 2 * ring, cols = w + 2 * ring, wp = cols + 2;
    double *const first = cur;
    for (long p = 0; p < pulses; p++) {
        fill(cur, p == 0 ? pixels : bits, h, w, ring);
        if (c > 0.0) {
            substeps_body(cur, nxt, rows, cols, c, substeps);
            if (substeps % 2) {
                double *t = cur;
                cur = nxt;
                nxt = t;
            }
        }
        for (long i = 0; i < h; i++)
            threshold(cur + (ring + 1 + i) * wp + ring + 1, bits + i * w, w, vth);
    }
    return cur != first;
}

/* One build of the restore, compiled with the given function attributes. */
#define VARIANT(name, attributes)                                                             \
    attributes static long restore_##name(const unsigned char *pixels, long h, long w,       \
                                          long ring, double *cur, double *nxt, double c,     \
                                          long substeps, long pulses, double vth,            \
                                          unsigned char *bits)                               \
    {                                                                                         \
        return restore_body(pixels, h, w, ring, cur, nxt, c, substeps, pulses, vth, bits);    \
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
 * into bits, 1 byte each, set where the voltage exceeds vth. nxt is only
 * ever written by a substep, which sets every grid cell of it. Returns 1 if
 * the last pulse's analog grid is in nxt, else 0 (it is in cur).
 */
long cramsim_restore(long variant, const unsigned char *pixels, long h, long w, long ring,
                     double *cur, double *nxt, double c, long substeps, long pulses, double vth,
                     unsigned char *bits)
{
    /* variant number variant, or the baseline if this CPU cannot run it */
#ifdef AVX512F_VARIANT
    if (variant == 1 && cramsim_variants() == 2)
        return restore_avx512f(pixels, h, w, ring, cur, nxt, c, substeps, pulses, vth, bits);
#endif
    (void)variant;
    return restore_baseline(pixels, h, w, ring, cur, nxt, c, substeps, pulses, vth, bits);
}

/* The set pixels still inside a candidate: row, column and owning candidate. */
typedef struct {
    int32_t *row, *col, *owner;
    long n;
} Points;

/* A buffer that grows to what one step of the search needs. Growing it
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
