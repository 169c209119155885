/* The adaptive loop of multilink.integrator and the vehicle kernel of
 * multilink.dynamics, as C, the per-sample constraint-residual maximum of
 * multilink.dynamics.residual_max_series with the sin(theta)^2 of its
 * energy_series, and the row formatter and row parser of the trajectory CSV
 * of multilink.scenarios.
 *
 * multilink._compiled builds this file once per process with -O2
 * -ffp-contract=off -fno-builtin-sin -fno-builtin-cos (no fast-math, no
 * fused multiply-add, no sin or cos that the compiler folds or fuses) and
 * calls ml_run, ml_residual_max, ml_format_rows and ml_parse_rows through
 * ctypes.
 * Every floating-point operation is the one the emitted Python step and
 * kernel, or the numpy diagnostics, perform, in the same order and through
 * the same libm sin, cos, pow and sqrt, so both give the same bits: zero
 * tableau coefficients are skipped, a linear combination starts from its
 * first non-zero term, sums run left to right, and max(a, b) keeps a unless
 * b > a, as Python's builtins do.  Where the Python code takes the sin and
 * the cos of one argument, this file calls glibc's sincos once, which
 * computes both with the routines of sin and cos and so gives their bits
 * (tests/test_compiled_loop.py::test_sincos_matches_sin_and_cos checks the
 * libm at hand).  Where Python raises, the same case is caught here: sin or
 * cos of an infinity gives NaN rates, as the kernel's except clause does,
 * and a degenerate shape ends the run with a status.
 *
 * ml_run keeps no state of its own: everything lives in the caller's Run
 * and work memory, and a call returns after filling the sample buffer or
 * after max_steps step attempts, to be called again to go on.
 */
#define _GNU_SOURCE  /* sincos */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* RUN_START: the state has another dimension than the chart's, or the
 * derivative at the start is not finite or meets a degenerate shape; the
 * caller's Python loop raises the error. */
enum { RUN_DONE, RUN_MORE, RUN_UNDERFLOW, RUN_DIVERGED, RUN_DEGENERATE,
       RUN_START };
enum { CHART_REDUCED, CHART_FULL, CHART_MANIFOLD };

/* A vehicle field: n links on a chart, hinge distances c and couplings mu,
 * and the rotor rate af * cos(freq * t).  On the manifold chart af and freq
 * are the fixed v1 and omega, and the state is the angles alone. */
typedef struct {
    int n, chart;
    const double *c, *mu;
    double mass, inertia, b, af, freq;
} Vehicle;

/* The embedded 8(5,3) pair as sparse rows of (column, coefficient): rows 0
 * .. stages - 2 build the inputs of stages 1 .. stages - 1 (the last of them
 * is the new state), then come the 5th- and 3rd-order error rows.  c holds
 * the stage abscissae, silent the stages that no error row weighs. */
typedef struct {
    int stages, n_silent;
    double exponent;
    const double *c;
    const int *row_start, *col;
    const double *val;
    const int *silent;
} Pair;

/* The loop's settings and its state between calls. */
typedef struct {
    int dim, landing, first;        /* landing: emit at targets only;
                                       first: emit the start */
    long stride, n_targets, next_target, max_steps;
    const double *targets;
    double t, t_end, h_prop, hmax, h_floor, rtol, atol, last_t;
    long n_acc, n_rej, n_evals, n_out;
    double h, m_eff, stage_t;       /* the failing step or stage */
} Run;

/* The dimension of the vehicle's state on its chart. */
static int dim_of(const Vehicle *v)
{
    return v->n + (v->chart == CHART_MANIFOLD ? 0
                   : v->chart == CHART_FULL ? 5 : 2);
}

/* The rates at (t, y) into f; 1 for a finite m_eff <= 0. */
static int rates(const Vehicle *v, double t, const double *y, double *f,
                 double *m_eff_out)
{
    const int manifold = v->chart == CHART_MANIFOLD, n = v->n;
    const double *p = manifold ? y : y + 2;
    const double v1 = manifold ? v->af : y[0], om = manifold ? v->freq : y[1];
    double *d = manifold ? f : f + 2;
    double acc = 0.0, m_eff = v->mass, quad_v = 0.0, quad_cross = 0.0,
           accw = 0.0;
    for (int i = 0; i < n; i++) {
        const double alt = i % 2 ? -p[i] : p[i];
        const double th = alt + acc;
        if (isinf(th))
            goto nan;
        acc += 2.0 * alt;
        double sin_t, cos_t;
        sincos(th, &sin_t, &cos_t);
        const double w = sin_t / v->c[i];
        const double mu_sc = v->mu[i] * sin_t * cos_t;
        m_eff += v->mu[i] * sin_t * sin_t;
        quad_v += 2.0 * mu_sc * (accw + 0.5 * w);
        quad_cross += mu_sc;
        d[i] = (i % 2 ? v1 * w : -(v1 * w)) - om;
        accw += w;
    }
    if (m_eff <= 0.0) {
        *m_eff_out = m_eff;
        return 1;
    }
    if (manifold)
        return 0;
    if (isinf(v->freq * t) || (v->chart == CHART_FULL && isinf(y[n + 4])))
        goto nan;
    f[0] = (v->b * om * om + quad_v * v1 * v1 + quad_cross * om * v1) / m_eff;
    f[1] = (-v->b * om * v1 - v->af * cos(v->freq * t)) / v->inertia;
    if (v->chart == CHART_FULL) {
        double sin_psi, cos_psi;
        sincos(y[n + 4], &sin_psi, &cos_psi);
        f[n + 2] = v1 * cos_psi;
        f[n + 3] = v1 * sin_psi;
        f[n + 4] = om;
    }
    return 0;
nan:  /* Python's sin and cos raise on an infinity; the kernel returns NaN */
    for (int i = 0; i < dim_of(v); i++)
        f[i] = NAN;
    return 0;
}

/* The combination of the stages k by sparse row `row` into out, one
 * coefficient at a time over all components: each component still sums its
 * terms left to right, from the first non-zero one. */
static void comb(const Pair *p, int row, const double *restrict k, int dim,
                 double *restrict out)
{
    int q = p->row_start[row];
    const int end = p->row_start[row + 1];
    const double *kq = k + p->col[q] * dim;
    double a = p->val[q];
    for (int i = 0; i < dim; i++)
        out[i] = a * kq[i];
    while (++q < end) {
        kq = k + p->col[q] * dim;
        a = p->val[q];
        for (int i = 0; i < dim; i++)
            out[i] += a * kq[i];
    }
}

static double max2(double a, double b) { return b > a ? b : a; }

/* One step of size h from (t, y), whose derivative is k[0]: fills the
 * stages k[1 ..], the two error rows e and the new state yn, and sets *err
 * to the error norm, NaN where a stage or the new state is not finite.
 * Returns 0, or the status of a failed step. */
static int step(const Pair *p, const Vehicle *v, Run *r, double h,
                const double *y, double *k, double *e, double *yn,
                double *err)
{
    const int dim = r->dim, s_end = p->stages;
    for (int s = 1; s < s_end; s++) {
        comb(p, s - 1, k, dim, yn);
        for (int i = 0; i < dim; i++)
            yn[i] = y[i] + h * yn[i];
        const double ts = r->t + p->c[s] * h;
        if (rates(v, ts, yn, k + s * dim, &r->m_eff)) {
            r->stage_t = ts;
            return RUN_DEGENERATE;
        }
    }
    double silent = 0.0;
    for (int q = 0; q < p->n_silent; q++) {
        double sum = 0.0;
        for (int i = 0; i < dim; i++)
            sum += k[p->silent[q] * dim + i];
        silent += sum;
    }
    comb(p, s_end - 1, k, dim, e);  /* the 5th- and 3rd-order error rows */
    comb(p, s_end, k, dim, e + dim);
    double sum = 0.0, e5 = 0.0, e3 = 0.0;
    for (int i = 0; i < dim; i++) {
        const double sc = r->atol + r->rtol * max2(fabs(y[i]), fabs(yn[i]));
        const double x5 = fabs(e[i]) / sc;
        const double x3 = fabs(e[dim + i]) / sc;
        sum += x5;
        e5 = i == 0 ? x5 : max2(e5, x5);
        e3 = i == 0 ? x3 : max2(e3, x3);
    }
    if (isnan(sum) || !isfinite(silent))
        *err = NAN;
    else if (e5 == 0.0)
        *err = 0.0;
    else {
        const double root = sqrt(e5 * e5 + 0.01 * e3 * e3);
        if (root == 0.0) {  /* both squares underflow: divide through by e5 */
            const double q = e3 / e5;
            *err = h * e5 / sqrt(1.0 + 0.01 * q * q);
        } else {
            *err = h * e5 * e5 / root;
        }
    }
    return 0;
}

static void emit(Run *r, const double *y, double *t_out, double *y_out)
{
    t_out[r->n_out] = r->t;
    memcpy(y_out + r->n_out * r->dim, y, r->dim * sizeof *y);
    r->n_out++;
    r->last_t = r->t;
}

/* work: the state y, the stages k (k[0] its derivative, which the first
 * call takes, n_evals being 0), the two error rows e and the new state, dim
 * doubles each; t_out and y_out hold cap samples. */
int ml_run(const Pair *p, const Vehicle *v, Run *r, double *work,
           double *t_out, double *y_out, long cap)
{
    const int dim = r->dim, last = p->stages - 1;
    double *y = work, *k = work + dim, *e = k + p->stages * dim,
           *yn = e + 2 * dim;
    r->n_out = 0;
    if (r->n_evals == 0) {
        if (r->dim != dim_of(v) || rates(v, r->t, y, k, &r->m_eff))
            return RUN_START;
        for (int i = 0; i < dim; i++)
            if (!isfinite(k[i]))
                return RUN_START;
        r->n_evals = 1;
        if (r->first)
            emit(r, y, t_out, y_out);
        if (r->n_out == cap)
            return RUN_MORE;
    }
    for (long attempts = 0; r->t < r->t_end; attempts++) {
        if (attempts == r->max_steps)
            return RUN_MORE;
        const double target = r->next_target < r->n_targets
            ? r->targets[r->next_target] : r->t_end;
        const double gap = target - r->t;
        double h = r->hmax < r->h_prop ? r->hmax : r->h_prop;
        if (gap <= h / 0.9 && gap <= r->hmax)
            h = gap;
        const int clamped = h < r->h_prop;
        if (h < r->h_floor && h != gap) {  /* a landing step ends on target */
            r->h = h;
            return RUN_UNDERFLOW;
        }
        double err;
        const int status = step(p, v, r, h, y, k, e, yn, &err);
        if (status)
            return status;
        r->n_evals += last;

        if (!isfinite(err)) {
            r->n_rej++;
            r->h_prop = h * 0.25;
            if (r->h_prop < r->h_floor)
                return RUN_DIVERGED;
            continue;
        }
        if (err > 1.0) {
            r->n_rej++;
            r->h_prop = h * max2(0.2, 0.9 * pow(err, p->exponent));
            continue;
        }

        r->n_acc++;
        r->t = h == gap ? target : r->t + h;
        memcpy(y, yn, dim * sizeof *y);
        memcpy(k, k + last * dim, dim * sizeof *k);
        double factor = 5.0;
        if (err != 0.0) {
            factor = max2(0.2, 0.9 * pow(err, p->exponent));
            factor = factor < 5.0 ? factor : 5.0;
        }
        r->h_prop = clamped ? max2(r->h_prop, h * factor) : h * factor;

        if (r->landing) {
            if (r->next_target < r->n_targets
                    && r->t == r->targets[r->next_target]) {
                emit(r, y, t_out, y_out);
                r->next_target++;
            }
        } else if (r->n_acc % r->stride == 0 || r->t >= r->t_end) {
            emit(r, y, t_out, y_out);
        }
        if (r->n_out == cap)
            return RUN_MORE;
    }
    if (!r->landing && r->last_t != r->t)
        emit(r, y, t_out, y_out);
    return RUN_DONE;
}


/* The largest |residual| of the n + 1 wheel constraints at each of rows
 * samples, as dynamics.residual_max_series computes it with numpy: theta
 * as model.theta_from_phi does (a cumulative sum, not the kernel's
 * recurrence), the angle rates of dynamics.angle_rates, the residuals of
 * dynamics.residuals_from_rates, whose link i subtracts its terms for j = 0
 * .. i - 1 in that order, and np.max of their absolute values, where a NaN
 * wins.  Sample r reads v1[r * stride], om[r * stride], psi[r * stride]
 * and the n angles phi[r * phi_stride ..]: separate contiguous columns take
 * strides 1 and n, the full chart's (rows, n + 5) state block takes its row
 * length for both.  c holds n doubles and rate is n doubles of work.  Where
 * sin2 is not NULL it receives sin(theta)^2 at each sample and link (row by
 * row, n per sample), the factor of dynamics.energy_series's s * s. */
void ml_residual_max(long rows, int n, const double *v1, const double *om,
                     const double *phi, const double *psi, long stride,
                     long phi_stride, const double *c, double *rate,
                     double *out, double *sin2)
{
    for (long r = 0; r < rows; r++) {
        const double *ph = phi + r * phi_stride, v = v1[r * stride],
                     w = om[r * stride], ps = psi[r * stride];
        double cs = 0.0, sin_psi, cos_psi;
        for (int i = 0; i < n; i++) {
            const double alt = (i % 2 ? -1.0 : 1.0) * ph[i];
            cs = i ? cs + alt : alt;
            const double th = 2.0 * cs - alt, s = sin(th);
            rate[i] = w + ((i % 2 ? 1.0 : -1.0) * (v * s / c[i]) - w);
            if (sin2)
                sin2[r * n + i] = s * s;
        }
        sincos(ps, &sin_psi, &cos_psi);
        const double xdot = v * cos_psi, ydot = v * sin_psi;
        double max = fabs(-xdot * sin_psi + ydot * cos_psi);
        for (int i = 0; i < n; i++) {
            double sin_h, cos_h;
            sincos(ps + ph[i], &sin_h, &cos_h);
            double res = -xdot * sin_h + ydot * cos_h - c[i] * rate[i];
            for (int j = 0; j < i; j++)
                res -= 2.0 * c[j] * rate[j] * cos(ph[i] - ph[j]);
            const double a = fabs(res);
            if (a > max || isnan(a))
                max = a;
        }
        out[r] = max;
    }
}


/* The trajectory CSV: each value as the bytes of Python's "%.17g" % v.
 *
 * The digits come from exact integer arithmetic, not from printf, whose
 * decimal point follows LC_NUMERIC and which prints a NaN's sign.  A finite
 * nonzero |x| = m 2^e in [10^-16, 10^17) has k = floor(log10 |x|) in
 * [-16, 16], and its 17 digits are round(|x| 10^p) with p = 16 - k in
 * [0, 32], half to even: m 5^p < 2^53 5^32 < 2^128 is exact, and a shift by
 * e + p leaves the integer part and the remainder.  Other finite values are
 * left to the caller.  A compiler without 128-bit integers builds no
 * ml_format_rows, and the caller formats every row. */
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

#define E16 UINT64_C(10000000000000000)

/* "%.17g" % x into out; returns its length, or 0 for a finite nonzero x
 * outside [10^-16, 10^17).  pow5[p] is 5^p. */
static int format17(double x, char *out, const u128 *pow5)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int biased = (int)(bits >> 52 & 0x7ff);
    const uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    char *o = out;
    if (biased == 0x7ff && frac) {  /* Python drops the sign of a NaN */
        memcpy(o, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        *o++ = '-';
    if (biased == 0x7ff || (biased == 0 && frac == 0)) {
        const int len = biased ? 3 : 1;
        memcpy(o, biased ? "inf" : "0", len);
        return (int)(o - out) + len;
    }
    const double a = fabs(x);
    /* the double 1e-16 lies below 10^-16: the loop below declines it */
    if (!(a >= 1e-16 && a < 1e17))
        return 0;
    const uint64_t m = frac | UINT64_C(1) << 52;  /* a is normal */
    const int e = biased - 1075;
    /* log10 can be off by one next to a power of ten: the truncated
     * digits, which lie in [10^16, 10^17) for the right k, correct it */
    int k = (int)floor(log10(a));
    k = k < -16 ? -16 : k > 16 ? 16 : k;
    uint64_t digits;
    u128 rest, half;
    for (;;) {
        const int p = 16 - k, s = e + p;
        const u128 n = (u128)m * pow5[p];
        rest = 0;
        half = 1;  /* above any rest of an exact product */
        if (s >= 0) {
            digits = (uint64_t)(n << s);
        } else {
            digits = (uint64_t)(n >> -s);
            rest = n & (((u128)1 << -s) - 1);
            half = (u128)1 << (-s - 1);
        }
        if (digits < E16) {
            if (k == -16)
                return 0;
            k--;
        } else if (digits >= 10 * E16) {
            k++;
        } else {
            break;
        }
    }
    if (rest > half || (rest == half && digits & 1))
        digits++;
    if (digits == 10 * E16) {
        digits = E16;
        k++;
    }
    char d[17];
    for (int i = 16; i >= 0; i--) {
        d[i] = (char)('0' + digits % 10);
        digits /= 10;
    }
    int last = 16;  /* the last digit kept: %g strips trailing zeros */
    while (last > 0 && d[last] == '0')
        last--;
    if (k < -4 || k >= 17) {
        *o++ = d[0];
        if (last > 0) {
            *o++ = '.';
            memcpy(o, d + 1, last);
            o += last;
        }
        *o++ = 'e';
        *o++ = k < 0 ? '-' : '+';
        const int ak = k < 0 ? -k : k;  /* at most 17: two digits */
        *o++ = (char)('0' + ak / 10);
        *o++ = (char)('0' + ak % 10);
    } else if (k < 0) {
        *o++ = '0';
        *o++ = '.';
        for (int i = -1; i > k; i--)
            *o++ = '0';
        memcpy(o, d, last + 1);
        o += last + 1;
    } else {
        memcpy(o, d, k + 1);
        o += k + 1;
        if (last > k) {
            *o++ = '.';
            memcpy(o, d + k + 1, last - k);
            o += last - k;
        }
    }
    return (int)(o - out);
}

/* The rows x cols doubles of table (row by row) as CSV lines into out, 25
 * bytes per value at most.  Stops before the first row holding a value
 * that format17 leaves to the caller; sets *done to the rows written and
 * returns their bytes. */
long ml_format_rows(const double *table, long rows, int cols, char *out,
                    long *done)
{
    u128 pow5[33] = {1};
    for (int p = 1; p < 33; p++)
        pow5[p] = 5 * pow5[p - 1];
    char *o = out;
    long r = 0;
    for (; r < rows; r++) {
        char *const row = o;
        for (int j = 0; j < cols; j++) {
            const int len = format17(table[r * cols + j], o, pow5);
            if (!len) {
                *done = r;
                return (long)(row - out);
            }
            o += len;
            *o++ = j + 1 < cols ? ',' : '\n';
        }
    }
    *done = r;
    return (long)(o - out);
}
#endif


/* The trajectory CSV read back: the writer's own lines only.
 *
 * A field is -?digits(.digits)?(e[+-]digits)?, inf, -inf or nan, the forms
 * "%.17g" writes; a line holds one field per header name, separated by
 * commas, and ends in a newline.  On any other byte or shape ml_parse_rows
 * declines, and the caller reads the file by numpy.loadtxt, whose errors
 * and accepted inputs stay the only ones.  A kept field is converted by
 * strtod, which rounds correctly as Python's float parser does, and the end
 * of its number must land on the delimiter: under an LC_NUMERIC whose
 * decimal point is not '.' it does not, and the file is declined. */

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* The end of the writer's number that starts at s, or s where none does.
 * Reads no further than the next byte outside the grammar. */
static const char *number_end(const char *s)
{
    const char *p = s + (*s == '-'), *d;
    if (p[0] == 'i' && p[1] == 'n' && p[2] == 'f')
        return p + 3;
    if (p == s && p[0] == 'n' && p[1] == 'a' && p[2] == 'n')
        return p + 3;
    for (d = p; is_digit(*p); p++)
        ;
    if (p == d)
        return s;
    if (*p == '.') {
        for (d = ++p; is_digit(*p); p++)
            ;
        if (p == d)
            return s;
    }
    if (*p == 'e') {
        if (*++p != '+' && *p != '-')
            return s;
        for (d = ++p; is_digit(*p); p++)
            ;
        if (p == d)
            return s;
    }
    return p;
}

/* The complete lines of text[0 .. len) as rows of out, each line `fields`
 * values, of which field j goes to out[row * kept + slot[j]] where slot[j]
 * >= 0; at most cap rows.  Sets *used to the bytes of those lines and
 * returns their number, or returns -1 to decline the text. */
long ml_parse_rows(const char *text, long len, int fields, const int *slot,
                   int kept, double *out, long cap, long *used)
{
    long end = len;  /* after the last newline: every line below ends in one */
    while (end > 0 && text[end - 1] != '\n')
        end--;
    const char *p = text, *const stop = text + end;
    long r = 0;
    for (; p < stop; r++) {
        if (r == cap)
            return -1;
        for (int j = 0; j < fields; j++) {
            const char *q = number_end(p);
            if (q == p || *q != (j + 1 < fields ? ',' : '\n'))
                return -1;
            if (slot[j] >= 0) {
                double x;
                if (q[-1] == 'f') {
                    x = *p == '-' ? -HUGE_VAL : HUGE_VAL;
                } else if (q[-1] == 'n') {
                    x = NAN;
                } else {
                    char *e;
                    x = strtod(p, &e);
                    if (e != q)
                        return -1;
                }
                out[r * kept + slot[j]] = x;
            }
            p = q + 1;
        }
    }
    *used = end;
    return r;
}
