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
 */

void cramsim_substeps(double *restrict cur, double *restrict nxt, long rows, long cols,
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
