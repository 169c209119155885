/* The adaptive loop of multilink.integrator and the vehicle kernel of
 * multilink.dynamics, as C, the per-sample constraint-residual maximum of
 * multilink.dynamics.residual_max_series with the sin(theta)^2 of its
 * energy_series, the power-law fit of multilink.analysis.fit_power_law
 * (its window, per-period envelope, logs and line), the row formatter and
 * row parser of the trajectory CSV of multilink.scenarios, and the
 * polyline points of multilink.svgplot.
 *
 * multilink._compiled builds this file once per process with -O2
 * -ffp-contract=off -fno-builtin-sin -fno-builtin-cos (no fast-math, no
 * fused multiply-add, no sin or cos that the compiler folds or fuses) and
 * calls ml_run, ml_residual_max, ml_fit, ml_format_points,
 * ml_format_rows and ml_parse_rows through ctypes.  The text functions give
 * the bytes of Python's formatting and the bits of its float parser: the
 * parser takes strtod only where its exact fast path cannot decide.  Each
 * of them, and the fit, takes a whole unit (a polyline's series, a chunk of
 * CSV rows, a CSV file, a fit) or declines it with -1, and the caller then
 * does that unit in Python; none hands single values back.
 * Every floating-point operation is the one the emitted Python step and
 * kernel, the numpy diagnostics or the fit's Python line perform, in the
 * same order and through the same libm sin, cos, pow, log and sqrt, so both
 * give the same bits: zero tableau coefficients are skipped, a linear
 * combination starts from its first non-zero term, sums run left to right,
 * and max(a, b) keeps a unless b > a, as Python's builtins do.  Where the
 * Python code takes the sin and the cos of one argument, this file calls
 * glibc's sincos once, which computes both with the routines of sin and cos
 * and so gives their bits
 * (tests/test_compiled_loop.py::test_sincos_matches_sin_and_cos checks the
 * libm at hand).  Where Python raises, the same case is caught here: sin
 * or cos of an infinity gives NaN rates, as the kernel's except clause
 * does, and a degenerate shape ends the run with a status.
 *
 * ml_run keeps no state of its own: everything lives in the caller's Run
 * and work memory, and a call returns after filling the sample buffer or
 * after max_steps step attempts, to be called again to go on.  Its work rows
 * are padded with zeros to a multiple of LANES doubles (ml_row), and a step
 * combines each tableau row one block of LANES components at a time, the
 * block's partial sums held in registers and stored once.
 */
#define _GNU_SOURCE  /* sincos */
#include <float.h>
#include <locale.h>
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

/* The loop's settings and its state between calls.  The start is always
 * emitted.  A positive interval emits the grid t0 + k * interval (k =
 * next_point, from 1) below t_end and then t_end, a step landing on each
 * point; without one, every stride-th accepted step and t_end are. */
typedef struct {
    int dim;
    long stride, next_point, max_steps;
    double t, t_end, h_prop, hmax, h_floor, rtol, atol, t0, interval;
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

/* The lanes of a work row: ml_run's rows hold dim values and then zeros up
 * to the next multiple of LANES, so that a stage combination runs over whole
 * blocks of LANES components. */
enum { LANES = 4 };

/* The doubles of a work row of dim values: dim rounded up to a multiple of
 * LANES.  multilink._compiled sizes the work block with it. */
int ml_row(int dim)
{
    return (dim + LANES - 1) / LANES * LANES;
}

static double max2(double a, double b) { return b > a ? b : a; }

/* One step of size h from (t, y), whose derivative is k[0]: fills the
 * stages k[1 ..], the two error rows e and the new state yn, rows `row`
 * doubles apart, and sets *err to the error norm, NaN where a stage or the
 * new state is not finite.  Each sparse row is combined one block of LANES
 * components at a time, its partial sums held in acc and stored once: each
 * component still sums its terms left to right, from the first non-zero
 * one, and a stage input is y + h * sum.  The zero lanes past dim stay zero
 * in every stage and are never read as values.  Returns 0, or the status of
 * a failed step. */
static int step(const Pair *p, const Vehicle *v, Run *r, int row, double h,
                const double *y, double *k, double *e, double *yn,
                double *err)
{
    const int dim = r->dim, s_end = p->stages;
    /* sparse row s - 1: the input of stage s into yn, then from s = s_end
     * the 5th- and 3rd-order error rows into e */
    for (int s = 1; s <= s_end + 1; s++) {
        const int first = p->row_start[s - 1], end = p->row_start[s];
        const int stage = s < s_end;
        double *const out = stage ? yn : e + (s - s_end) * row;
        for (int b = 0; b < row; b += LANES) {
            const double *kq = k + p->col[first] * row + b;
            double a = p->val[first], acc[LANES];
            for (int l = 0; l < LANES; l++)
                acc[l] = a * kq[l];
            for (int q = first + 1; q < end; q++) {
                kq = k + p->col[q] * row + b;
                a = p->val[q];
                for (int l = 0; l < LANES; l++)
                    acc[l] += a * kq[l];
            }
            if (stage)
                for (int l = 0; l < LANES; l++)
                    out[b + l] = y[b + l] + h * acc[l];
            else
                for (int l = 0; l < LANES; l++)
                    out[b + l] = acc[l];
        }
        if (!stage)
            continue;
        const double ts = r->t + p->c[s] * h;
        if (rates(v, ts, yn, k + s * row, &r->m_eff)) {
            r->stage_t = ts;
            return RUN_DEGENERATE;
        }
    }
    double silent = 0.0;
    for (int q = 0; q < p->n_silent; q++) {
        double sum = 0.0;
        for (int i = 0; i < dim; i++)
            sum += k[p->silent[q] * row + i];
        silent += sum;
    }
    double sum = 0.0, e5 = 0.0, e3 = 0.0;
    for (int i = 0; i < dim; i++) {
        const double sc = r->atol + r->rtol * max2(fabs(y[i]), fabs(yn[i]));
        const double x5 = fabs(e[i]) / sc;
        const double x3 = fabs(e[row + i]) / sc;
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
}

/* work: the state y, the stages k (k[0] its derivative, which the first
 * call takes, n_evals being 0), the two error rows e and the new state, each
 * a row of ml_row(dim) doubles whose lanes past dim the caller zeroes; t_out
 * and y_out hold cap samples of dim values. */
int ml_run(const Pair *p, const Vehicle *v, Run *r, double *work,
           double *t_out, double *y_out, long cap)
{
    const int dim = r->dim, row = ml_row(dim), last = p->stages - 1;
    double *y = work, *k = work + row, *e = k + p->stages * row,
           *yn = e + 2 * row;
    r->n_out = 0;
    if (r->n_evals == 0) {
        if (r->dim != dim_of(v) || rates(v, r->t, y, k, &r->m_eff))
            return RUN_START;
        for (int i = 0; i < dim; i++)
            if (!isfinite(k[i]))
                return RUN_START;
        r->n_evals = 1;
        emit(r, y, t_out, y_out);
        if (r->n_out == cap)
            return RUN_MORE;
    }
    for (long attempts = 0; r->t < r->t_end; attempts++) {
        if (attempts == r->max_steps)
            return RUN_MORE;
        double target = r->t_end;
        if (r->interval > 0.0) {
            const double point = r->t0 + (double)r->next_point * r->interval;
            if (point < r->t_end)
                target = point;
        }
        const double gap = target - r->t;
        double h = r->hmax < r->h_prop ? r->hmax : r->h_prop;
        if (gap <= h / 0.9 && gap <= r->hmax) {
            h = gap;
        } else if (h < r->h_floor || r->t + h == r->t) {
            /* a step that does not land must be no shorter than the floor
             * and must move t */
            r->h = h;
            return RUN_UNDERFLOW;
        }
        const int clamped = h < r->h_prop;
        double err;
        const int status = step(p, v, r, row, h, y, k, e, yn, &err);
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
        memcpy(k, k + last * row, dim * sizeof *k);
        double factor = 5.0;
        if (err != 0.0) {
            factor = max2(0.2, 0.9 * pow(err, p->exponent));
            factor = factor < 5.0 ? factor : 5.0;
        }
        r->h_prop = clamped ? max2(r->h_prop, h * factor) : h * factor;

        if (r->interval > 0.0) {
            if (r->t == target) {
                emit(r, y, t_out, y_out);
                r->next_point++;
            }
        } else if (r->n_acc % r->stride == 0 || r->t >= r->t_end) {
            emit(r, y, t_out, y_out);
        }
        if (r->n_out == cap)
            return RUN_MORE;
    }
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


/* The power-law fit of analysis.fit_power_law, whole or declined, in one
 * call over the n samples (t[i * t_stride], v[i * v_stride]).  Its points
 * are the samples with t in [t_lo, t_hi] as they are, or where envelope is
 * not 0 their per-period maxima as analysis.envelope_points gives them:
 * each run of consecutive kept samples in one bin floor(t / period) gives
 * its first maximum of |v| and that sample's t.  The line of log v against
 * log t is analysis._fit_line's, by its operations in its order: libm log
 * of each point; the means of x = log t and y = log v, each the first
 * point's plus the left-to-right sum of the others' differences from it
 * over k (exact for a constant series); the sum of x^2; the centered sums
 * Sxx, Sxy and Syy of dx = x - mean(x) and dy = y - mean(y); slope Sxy /
 * Sxx and intercept mean(y) - slope mean(x); and r^2 = 1 - Srr / Syy over
 * the residuals dy - slope dx, or 1 where Syy is 0.  A sum starts from
 * -0.0, which adding a first term leaves that term's bits (sign of zero
 * included), as numpy's cumsum does.
 *
 * Writes the slope, the intercept and r^2 to fit[0 .. 2] and the window
 * count to *kept, and returns the number of points; x and y (n doubles each)
 * are its work.  Returns -1, and the caller fits in Python and raises the
 * check's error, wherever a check of the fit would fail: a window sample
 * whose t is not positive and finite or whose v is not finite, a period
 * that is not positive and finite or a t / period that overflows, fewer
 * than 30 samples or 2 points, a point that is not positive, or no spread
 * in log t: sqrt(Sxx) <= 2 k eps sqrt(sum x^2) over the k points. */
long ml_fit(const double *t, long t_stride, const double *v, long v_stride,
            long n, double t_lo, double t_hi, int envelope, double period,
            double *x, double *y, double *fit, long *kept)
{
    if (envelope && !(period > 0.0 && period < INFINITY))
        return -1;
    long m = 0, k = 0;
    double bin = 0.0;
    for (long i = 0; i < n; i++) {
        const double ti = t[i * t_stride];
        if (!(ti >= t_lo && ti <= t_hi))
            continue;
        const double vi = v[i * v_stride], a = fabs(vi);
        if (!(ti > 0.0 && ti < INFINITY && a < INFINITY))
            return -1;
        m++;
        if (!envelope) {
            x[k] = ti;
            y[k++] = vi;
            continue;
        }
        const double b = floor(ti / period);
        if (b == INFINITY)
            return -1;
        if (k == 0 || b != bin) {
            bin = b;
            x[k] = ti;
            y[k++] = a;
        } else if (a > y[k - 1]) {
            x[k - 1] = ti;
            y[k - 1] = a;
        }
    }
    *kept = m;
    if (m < 30 || k < 2)
        return -1;
    double sx = -0.0, sy = -0.0, sx2 = -0.0;
    for (long i = 0; i < k; i++) {
        if (!(y[i] > 0.0))
            return -1;
        x[i] = log(x[i]);
        y[i] = log(y[i]);
        sx += x[i] - x[0];
        sy += y[i] - y[0];
        sx2 += x[i] * x[i];
    }
    const double mx = x[0] + sx / k, my = y[0] + sy / k;
    double sxx = -0.0, sxy = -0.0, syy = -0.0;
    for (long i = 0; i < k; i++) {
        x[i] -= mx;
        y[i] -= my;
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
        syy += y[i] * y[i];
    }
    if (!(sqrt(sxx) > 2.0 * k * DBL_EPSILON * sqrt(sx2)))
        return -1;
    const double slope = sxy / sxx;
    double srr = -0.0;
    for (long i = 0; i < k; i++) {
        const double r = y[i] - slope * x[i];
        srr += r * r;
    }
    fit[0] = slope;
    fit[1] = my - slope * mx;
    fit[2] = syy == 0.0 ? 1.0 : 1.0 - srr / syy;
    return k;
}


/* The artifacts' numbers as text, and back: each value of the trajectory
 * CSV as the bytes of Python's "%.17g" % v (multilink.scenarios), a CSV
 * field read back to the bits of Python's float(), and the points of an SVG
 * polyline with two decimals, as multilink.svgplot._points writes them.
 * The digits come from integer arithmetic rather than from printf or
 * strtod, whose decimal point follows LC_NUMERIC (and printf prints a NaN's
 * sign). */

/* "00" .. "99" */
static const char PAIRS[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The decimal digits of v, two at a time, ending just before end; returns
 * where they start. */
static char *digits_before(char *end, uint64_t v)
{
    for (; v >= 100; v /= 100) {
        end -= 2;
        memcpy(end, PAIRS + 2 * (v % 100), 2);
    }
    if (v >= 10) {
        end -= 2;
        memcpy(end, PAIRS + 2 * v, 2);
    } else {
        *--end = (char)('0' + v);
    }
    return end;
}

/* One value of a polyline's points at o, as svgplot._fmt writes it: the
 * sign (of signbit), then the units and two decimals of rint(|v| 100), its
 * trailing zeros and a bare point dropped.  Returns the end, or NULL for a
 * value that it leaves to svgplot: a non-finite one, one of 1e12 or
 * more, or one whose fl(100 |v|) is a half integer, which rint(fl(100 |v|))
 * need not round as "%.2f" rounds v.  Rounding is monotonic and every half
 * integer below 2^52 is a double, so any other fl(100 |v|) lies on the same
 * side of each half as 100 |v| and rounds to the same count. */
static char *put_point(char *o, double v)
{
    const double a = fabs(v), s = a * 100.0;
    if (!(a < 1e12))
        return NULL;
    const int64_t whole = (int64_t)s;  /* floor: 0 <= s < 2^52 */
    const double frac = s - (double)whole;
    if (frac == 0.5)
        return NULL;
    const int64_t count = whole + (frac > 0.5);
    const int cents = (int)(count % 100);
    /* the units, at most 10^12 (fl(100 |v|) can round up to 10^14), right-
     * aligned at units + 13 and copied 16 bytes at once: the caller's 17
     * bytes hold the sign and those */
    char units[29];
    const char *start = digits_before(units + 13, (uint64_t)(count / 100));
    *o = '-';
    o += signbit(v) != 0;
    memcpy(o, start, 16);
    o += units + 13 - start;
    o[0] = '.';
    o[1] = (char)('0' + cents / 10);
    o[2] = (char)('0' + cents % 10);
    return o + (cents ? cents % 10 ? 3 : 2 : 0);
}

/* The points attribute "x,y x,y ..." of the polyline through the n points
 * (xs[i], ys[i]) into out, which holds 17 bytes per value; returns the
 * bytes written, or -1 where put_point leaves a value to svgplot, which
 * then formats the whole series. */
long ml_format_points(const double *xs, const double *ys, long n, char *out)
{
    char *o = out;
    for (long i = 0; i < 2 * n; i++) {
        o = put_point(o, i % 2 ? ys[i / 2] : xs[i / 2]);
        if (!o)
            return -1;
        *o++ = i % 2 ? ' ' : ',';
    }
    return n ? (long)(o - out) - 1 : 0;
}


/* A finite nonzero |x| = m 2^e (m < 2^53) in [10^K_MIN, 10^17) has k =
 * floor(log10 |x|) in [K_MIN, 16], and its 17 digits are round(|x| 10^p)
 * with p = 16 - k in [0, 55], half to even: m 5^p < 2^53 5^55 < 2^181 is
 * exact in 192 bits, and a shift by e + p leaves the integer part and the
 * remainder.  A compiler without 128-bit integers builds none of this: no
 * ml_format_rows, whose caller then formats every row, and a parser that
 * converts every field by strtod. */
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

#define E16 UINT64_C(10000000000000000)
enum { K_MIN = -39, K_MAX = 16 };

/* 5^p for p in [0, K_MAX - K_MIN], and 10^k to within an ulp or two for k
 * in [K_MIN, K_MAX + 1], filled when the library is loaded */
static u128 pow5[K_MAX - K_MIN + 1];
static double near_pow10[K_MAX - K_MIN + 2];

__attribute__((constructor)) static void fill_powers(void)
{
    pow5[0] = 1;
    for (int p = 1; p <= K_MAX - K_MIN; p++)
        pow5[p] = 5 * pow5[p - 1];
    for (int k = K_MIN; k <= K_MAX + 1; k++)
        near_pow10[k - K_MIN] = k < 0 ? ldexp(1.0 / (double)pow5[-k], k)
                                      : ldexp((double)pow5[k], k);
}

/* floor(x log10 2), exact for |x| < 1650 */
static int floor_log10_pow2(int x)
{
    return x >= 0 ? x * 78913 >> 18 : -((-x * 78913 + (1 << 18) - 1) >> 18);
}

/* The 17 significant digits of a double a > 0, rounded as "%.17g" rounds
 * them: sets *digits in [10^16, 10^17) and *k to the decimal exponent of
 * the first, and returns 1; returns 0 where a lies outside [10^K_MIN,
 * 10^17). */
static int digits17(double a, uint64_t *digits, int *k_out)
{
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    const int biased = (int)(bits >> 52);
    if (biased == 0 || !(a < 1e17))  /* a subnormal lies below 10^K_MIN */
        return 0;
    const uint64_t m = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    const int e = biased - 1075;
    /* k or k - 1, and a power of ten near the next tells which; where it
     * errs, the truncated digits, which lie in [10^16, 10^17) for the right
     * k, correct it */
    int k = floor_log10_pow2(e + 52);
    if (k < K_MIN - 1)
        return 0;
    k += a >= near_pow10[k + 1 - K_MIN];
    k = k < K_MIN ? K_MIN : k > K_MAX ? K_MAX : k;
    uint64_t d;
    int up;
    for (;;) {
        const int p = K_MAX - k, s = e + p;
        /* m 5^p = top 2^64 + low */
        const u128 lo = (u128)m * (uint64_t)pow5[p];
        const u128 top = (u128)m * (uint64_t)(pow5[p] >> 64) + (lo >> 64);
        const uint64_t low = (uint64_t)lo;
        if (s >= 0) {  /* then m 5^p 2^s, the digits, is below 2^64 */
            d = low << s;
            up = 0;
        } else {
            /* shift by r: past 64, the low word only tells whether the
             * remainder lies above a half when its top bits make one */
            int r = -s;
            const int sticky = r > 64 && low;
            const u128 n = r > 64 ? top : top << 64 | low;
            r -= r > 64 ? 64 : 0;
            d = (uint64_t)(n >> r);
            const u128 rest = n & (((u128)1 << r) - 1),
                       half = (u128)1 << (r - 1);
            up = rest > half || (rest == half && (sticky || d & 1));
        }
        if (d < E16) {
            if (k == K_MIN)
                return 0;
            k--;
        } else if (d >= 10 * E16) {
            k++;
        } else {
            break;
        }
    }
    d += up;
    if (d == 10 * E16) {
        d = E16;
        k++;
    }
    *digits = d;
    *k_out = k;
    return 1;
}

/* The 8 digits of v < 10^8 at o, leading zeros included: two at a time,
 * in two independent halves. */
static void put8(char *o, uint32_t v)
{
    const uint32_t hi = v / 10000, lo = v % 10000;
    memcpy(o, PAIRS + 2 * (hi / 100), 2);
    memcpy(o + 2, PAIRS + 2 * (hi % 100), 2);
    memcpy(o + 4, PAIRS + 2 * (lo / 100), 2);
    memcpy(o + 6, PAIRS + 2 * (lo % 100), 2);
}

/* "%.17g" % x into out; returns its length, or 0 for a finite nonzero x
 * that digits17 leaves to the caller. */
static int format17(double x, char *out)
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
    uint64_t digits;
    int k;
    if (!digits17(fabs(x), &digits, &k))
        return 0;
    /* the 17 digits, padded for the copies of fixed length below, which
     * build the text in t; the caller's 24 bytes from out hold t's 23 */
    char d[33], t[40];
    const uint64_t head = digits / 100000000;  /* the first 9 digits */
    d[0] = (char)('0' + head / 100000000);
    put8(d + 1, (uint32_t)(head % 100000000));
    put8(d + 9, (uint32_t)(digits % 100000000));
    memset(d + 17, '0', 16);
    int last = 16;  /* the last digit kept: %g strips trailing zeros */
    while (last > 0 && d[last] == '0')
        last--;
    int n;
    if (k < -4 || k >= 17) {
        t[0] = d[0];
        t[1] = '.';
        memcpy(t + 2, d + 1, 16);
        n = last > 0 ? last + 2 : 1;
        t[n] = 'e';
        t[n + 1] = k < 0 ? '-' : '+';
        memcpy(t + n + 2, PAIRS + 2 * (k < 0 ? -k : k), 2);  /* |k| <= 39 */
        n += 4;
    } else if (k < 0) {
        memcpy(t, "0.000", 5);
        n = 1 - k;
        memcpy(t + n, d, 17);
        n += last + 1;
    } else {
        memcpy(t, d, 17);
        t[k + 1] = '.';
        memcpy(t + k + 2, d + k + 1, 16);
        n = last > k ? last + 2 : k + 1;
    }
    memcpy(o, t, 23);
    return (int)(o - out) + n;
}

/* The rows x cols doubles of table (row by row) as CSV lines into out, 25
 * bytes per value at most; returns the bytes written, or -1 where format17
 * leaves a value to the caller, which then formats every row. */
long ml_format_rows(const double *table, long rows, int cols, char *out)
{
    char *o = out;
    for (long r = 0; r < rows; r++) {
        for (int j = 0; j < cols; j++) {
            const int len = format17(table[r * cols + j], o);
            if (!len)
                return -1;
            o += len;
            *o++ = j + 1 < cols ? ',' : '\n';
        }
    }
    return (long)(o - out);
}
#endif


/* The trajectory CSV read back: the writer's own lines only.
 *
 * A field is -?digits(.digits)?(e[+-]digits)?, inf, -inf or nan, the forms
 * "%.17g" writes; a line holds one field per header name, separated by
 * commas, and ends in a newline.  On any other byte or shape ml_parse_rows
 * declines, and the caller reads the file by numpy.loadtxt, whose errors
 * and accepted inputs stay the only ones.  A kept field is converted to
 * the double that Python's float parser gives, by a fast path where it can
 * decide and else by strtod, which rounds correctly as well and whose end
 * must land on the delimiter.  strtod follows LC_NUMERIC: under a decimal
 * point other than '.' every text is declined. */

/* A number of the grammar: inf, nan, or the digits [digits, end) with a
 * point at `point` or none (point == end), times 10^ex; an exponent's digits
 * past 100000 are dropped, which leaves |ex| beyond any double's. */
typedef struct {
    enum { FINITE, INF, NOT_A_NUMBER } kind;
    int neg, ex;
    const char *digits, *point, *end;
} Number;

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* The end of the run of digits at p, taken 8 bytes at a time where they
 * lie before stop and the bytes of a word lie in memory order, lowest
 * first. */
static const char *digit_run(const char *p, const char *stop)
{
#if defined(__GNUC__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    const uint64_t low7 = UINT64_C(0x7F7F7F7F7F7F7F7F);
    while (stop - p >= 8) {
        uint64_t x;
        memcpy(&x, p, sizeof x);
        x ^= UINT64_C(0x3030303030303030);  /* a digit's byte is now 0 .. 9 */
        /* the top bit of each byte that is not: one of 10 .. 127 reaches it
         * by adding 118, which carries into no other byte */
        const uint64_t other = (((x & low7) + UINT64_C(0x7676767676767676))
                                | x) & ~low7;
        if (other)
            return p + (__builtin_ctzll(other) >> 3);
        p += 8;
    }
#else
    (void)stop;
#endif
    while (is_digit(*p))
        p++;
    return p;
}

/* The end of the writer's number that starts at s, read into *num, or s
 * where none does.  Reads no further than the next byte outside the
 * grammar, and 8 bytes at once only where they lie before stop. */
static const char *scan(const char *s, const char *stop, Number *num)
{
    const char *p = s + (*s == '-'), *d;
    *num = (Number){.kind = FINITE, .neg = p != s};
    if (p[0] == 'i' && p[1] == 'n' && p[2] == 'f') {
        num->kind = INF;
        return p + 3;
    }
    if (p == s && p[0] == 'n' && p[1] == 'a' && p[2] == 'n') {
        num->kind = NOT_A_NUMBER;
        return p + 3;
    }
    num->digits = p;
    p = digit_run(p, stop);
    if (p == num->digits)
        return s;
    num->point = p;
    if (*p == '.') {
        d = ++p;
        p = digit_run(p, stop);
        if (p == d)
            return s;
    }
    num->end = p;
    if (*p == 'e') {
        const int neg = *++p == '-';
        if (!neg && *p != '+')
            return s;
        int ex = 0;
        for (d = ++p; is_digit(*p); p++)
            ex = ex < 100000 ? 10 * ex + (*p - '0') : ex;
        if (p == d)
            return s;
        num->ex = neg ? -ex : ex;
    }
    return p;
}

#ifdef __SIZEOF_INT128__
/* 10^0 .. 10^22, exact doubles */
static const double TENS[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
    1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* |num| into *x where the fast path decides it, returning 1; 0 where
 * strtod must.  With w the nd significant digits and q the exponent of the
 * last, it decides a zero; w 10^q with w <= 2^53 and |q| <= 22, one
 * correctly rounded operation on exact operands (Clinger's fast path); and
 * w 10^q with nd <= 17 in the range of digits17, as the double near it,
 * stepped by one ulp towards it, whose 17 digits are its digits: "%.17g" is
 * injective on doubles and strtod reads its text back to the double, so
 * that double is strtod's. */
static int fast(const Number *num, double *x)
{
    const char *p = num->digits, *f;
    while (p < num->point && *p == '0')
        p++;
    uint64_t w = 0;  /* wraps past 19 digits, where it is not used */
    for (f = p; p < num->point; p++)
        w = 10 * w + (uint64_t)(*p - '0');
    int nd = (int)(p - f), q = num->ex;
    if (num->point < num->end) {
        p = num->point + 1;
        q -= (int)(num->end - p);
        while (nd == 0 && p < num->end && *p == '0')
            p++;
        for (f = p; p < num->end; p++)
            w = 10 * w + (uint64_t)(*p - '0');
        nd += (int)(p - f);
    }
    if (nd == 0) {
        *x = 0.0;
        return 1;
    }
    if (nd <= 17 && w <= UINT64_C(1) << 53 && q >= -22 && q <= 22) {
        *x = q < 0 ? (double)w / TENS[-q] : (double)w * TENS[q];
        return 1;
    }
    const int k = q + nd - 1;
    if (nd > 17 || k < K_MIN || k > K_MAX)
        return 0;
    const uint64_t want = w * (uint64_t)TENS[17 - nd];
    double y = (double)w;  /* within 2 ulp of w 10^q after the scaling */
    if (q >= 0) {
        y *= TENS[q];
    } else {
        int r = -q;
        for (; r > 22; r -= 22)
            y /= TENS[22];
        y /= TENS[r];
    }
    for (int tries = 0; tries < 4; tries++) {
        uint64_t d, bits;
        int kd;
        if (!digits17(y, &d, &kd))
            return 0;
        if (kd == k && d == want) {
            *x = y;
            return 1;
        }
        memcpy(&bits, &y, sizeof bits);
        bits += kd < k || (kd == k && d < want) ? 1 : -1;
        memcpy(&y, &bits, sizeof y);
    }
    return 0;
}
#else
static int fast(const Number *num, double *x)
{
    (void)num;
    (void)x;
    return 0;
}
#endif

/* The value of the number num that spans [s, end) into *x; returns 0 where
 * strtod ends elsewhere. */
static int convert(const Number *num, const char *s, const char *end,
                   double *x)
{
    if (num->kind == NOT_A_NUMBER) {
        *x = NAN;
    } else if (num->kind == INF) {
        *x = num->neg ? -HUGE_VAL : HUGE_VAL;
    } else if (fast(num, x)) {
        *x = num->neg ? -*x : *x;
    } else {
        char *e;
        *x = strtod(s, &e);
        return e == end;
    }
    return 1;
}

/* The complete lines of text[0 .. len) as rows of out, each line `fields`
 * values, of which field j goes to out[row * kept + slot[j]] where slot[j]
 * >= 0; at most cap rows.  Sets *used to the bytes of those lines and
 * returns their number, or returns -1 to decline the text. */
long ml_parse_rows(const char *text, long len, int fields, const int *slot,
                   int kept, double *out, long cap, long *used)
{
    const char *point = localeconv()->decimal_point;
    if (point[0] != '.' || point[1])
        return -1;
    long end = len;  /* after the last newline: every line below ends in one */
    while (end > 0 && text[end - 1] != '\n')
        end--;
    const char *p = text, *const stop = text + end;
    long r = 0;
    for (; p < stop; r++) {
        if (r == cap)
            return -1;
        for (int j = 0; j < fields; j++) {
            Number num;
            const char *q = scan(p, stop, &num);
            if (q == p || *q != (j + 1 < fields ? ',' : '\n'))
                return -1;
            if (slot[j] >= 0
                    && !convert(&num, p, q, &out[r * kept + slot[j]]))
                return -1;
            p = q + 1;
        }
    }
    *used = end;
    return r;
}
