/* C transcriptions of the three per-state loops: integrators._dg_run_python,
 * integrators._rk4_run_python and lyapunov._energy_column_python.  The two
 * integrators run a batch of independent trajectories in one call, each from
 * its own row 0, with nothing carried from one to the next.
 *
 * Each statement keeps the operands, the order of operations and the libm
 * calls (tanh, sinh, log1p, exp) of the Python line it transcribes, and the
 * file is compiled with -ffp-contract=off, so no multiply and add fuse: the
 * results match the Python kernels bit for bit.  Where Python would raise
 * ZeroDivisionError, a kernel returns ZERO_DIVISION and the caller raises.
 *
 * The file holds no tunables.  Every constant comes from the caller:
 *   pc, packed once per FilterParams by native.constants:
 *     pc[0..19]  the rows (S, k, S k, S k^2 / 2) of model.stage_table,
 *     pc[20..25] d, feedback_coeff, the feedback-ratio bounds glo and ghi
 *                (1, 1 at r = 0), omega0 and feedback_gain,
 *     pc[26..29] the scale entries 1, d, d^2, d^3 of w = D x;
 *   and the solver's tolerances, cutoffs, line search and ln 2 at each call.
 */

#include <math.h>

#define ZERO_DIVISION 1

/* ln(cosh(a)) of a = |u| >= 0 (or NaN), as lyapunov.log_cosh takes it. */
static double log_cosh_abs(double a, double ln2)
{
    double sh;
    if (a <= 1.0) {
        sh = sinh(0.5 * a);
        return log1p(2.0 * sh * sh);
    }
    return a + log1p(exp(-2.0 * a)) - ln2;
}

/* A discrete-gradient quotient S log_cosh_diff(k w, k b, t) / b, b != 0, as
 * _dg_run_python writes it: the |k b| <= 1 branch of lyapunov.log_cosh_diff
 * inline, else (NaN included) its difference of two log_cosh values. */
static double quotient(double s, double k, double w, double b, double t, double ln2)
{
    double q = k * b, a = k * w, sh;
    if (-1.0 <= q && q <= 1.0) {
        sh = sinh(0.5 * q);
        return s * log1p(2.0 * sh * sh + sinh(q) * t) / b;
    }
    return s * (log_cosh_abs(fabs(a + q), ln2) - log_cosh_abs(fabs(a), ln2)) / b;
}

/* max(m, |u|) as the chain of comparisons of _dg_run_python */
static double max_abs(double u, double m)
{
    return u > m ? u : -u > m ? -u : m;
}

/* One trajectory of dg_run: n steps from the state states[0..3] with its
 * stage values stages[0..4]; step j's state goes to states[4 j..4 j + 3] and
 * its stage values to stages[5 j..5 j + 4].  The stabilized steps are added
 * to work[0] and the line-search trials to work[1]. */
static int dg_trajectory(const double *pc, double dt, long n, long max_iter, double tol,
                         double ctol, double cut, double dcut, const double *line_search,
                         long n_search, double ln2, double *states, double *stages, long *work)
{
    const double s1 = pc[0], k1 = pc[1], g1 = pc[2], c1 = pc[3];
    const double s2 = pc[4], k2 = pc[5], g2 = pc[6], c2 = pc[7];
    const double s3 = pc[8], k3 = pc[9], g3 = pc[10], c3 = pc[11];
    const double s4 = pc[12], k4 = pc[13], g4 = pc[14], c4 = pc[15];
    const double s5 = pc[16], k5 = pc[17], g5 = pc[18], c5 = pc[19];
    const double d = pc[20], fc = pc[21], glo = pc[22], ghi = pc[23];
    const double ho = dt * pc[24];
    const double sub = -ho * d, hf = ho * fc;
    double kmax = k1, km = 0.0;
    const double cb1 = 2.0 * c1, cb2 = 2.0 * c2, cb3 = 2.0 * c3, cb4 = 2.0 * c4;
    const long n_chord = n_search < 1 ? n_search : 1;
    double g0;
    double w1 = states[0], w2 = states[1], w3 = states[2], w4 = states[3];
    double t1 = stages[0], t2 = stages[1], t3 = stages[2], t4 = stages[3], t5 = stages[4];
    double e1 = 0.0, e2 = 0.0, e3 = 0.0, e4 = 0.0, e5 = 0.0;
    long stabilized = 0, trials = 0, step, it, i, ns;

    kmax = k2 > kmax ? k2 : kmax;
    kmax = k3 > kmax ? k3 : kmax;
    kmax = k4 > kmax ? k4 : kmax;
    kmax = k5 > kmax ? k5 : kmax;
    if (c4 == 0.0)
        return ZERO_DIVISION;
    g0 = c5 / c4;
    for (step = 1; step <= n; step++) {
        const double y1 = g1 * t1, y2 = g2 * t2, y3 = g3 * t3, y4 = g4 * t4, y5 = g5 * t5;
        const double m1 = max_abs(w1, 1.0), m2 = max_abs(w2, 1.0);
        const double m3 = max_abs(w3, 1.0), m4 = max_abs(w4, 1.0);
        const double cut1 = cut * m1, cut2 = cut * m2, cut3 = cut * m3, cut4 = cut * m4;
        const double nc1 = -cut1, nc2 = -cut2, nc3 = -cut3, nc4 = -cut4;
        double v1 = w1, v2 = w2, v3 = w3, v4 = w4, h1 = 0.0, h2 = 0.0, h3 = 0.0, h4 = 0.0;
        double z1 = y1, z2 = y2, z3 = y3, z4 = y4, z5 = y5;
        double r1 = 0.0 - ho * (-z1 - fc * z4), r2 = 0.0 - ho * (d * z1 - z2);
        double r3 = 0.0 - ho * (d * z2 - z3), r4 = 0.0 - ho * (d * z3 - z5);
        double rnorm;
        int stale;

        rnorm = r1 < 0.0 ? -r1 : r1;
        rnorm = r2 > rnorm ? r2 : -r2 > rnorm ? -r2 : rnorm;
        rnorm = r3 > rnorm ? r3 : -r3 > rnorm ? -r3 : rnorm;
        rnorm = r4 > rnorm ? r4 : -r4 > rnorm ? -r4 : rnorm;
        stale = rnorm * km > 1.0;
        km = kmax;
        ns = n_search;
        if (!stale) {
            e1 = c1 * (1.0 - t1 * t1);
            e2 = c2 * (1.0 - t2 * t2);
            e3 = c3 * (1.0 - t3 * t3);
            e4 = c4 * (1.0 - t4 * t4);
            e5 = c5 * (1.0 - t5 * t5);
        }
        for (it = 0; !(rnorm <= tol) && it < max_iter; it++) {
            const double j11 = 1.0 + ho * e1, j22 = 1.0 + ho * e2, j33 = 1.0 + ho * e3;
            const double j21 = sub * e1, j32 = sub * e2, j43 = sub * e3;
            double p1, q1, p2, q2, p3, q3, piv, n1, n2, n3, n4;
            double u1, u2, u3, u4, th1, th2, th3, th4, th5, dc;
            int accepted = 0;

            if (j11 == 0.0 || j22 == 0.0 || j33 == 0.0)
                return ZERO_DIVISION;
            p1 = -r1 / j11;
            q1 = hf * e4 / j11;
            p2 = (-r2 - j21 * p1) / j22;
            q2 = -j21 * q1 / j22;
            p3 = (-r3 - j32 * p2) / j33;
            q3 = -j32 * q2 / j33;
            piv = 1.0 + ho * e5 - j43 * q3;
            if (piv == 0.0)
                return ZERO_DIVISION;
            n4 = (-r4 - j43 * p3) / piv;
            n1 = p1 - q1 * n4;
            n2 = p2 - q2 * n4;
            n3 = p3 - q3 * n4;
            for (i = 0; i < ns; i++) {
                const double lam = line_search[i];
                const double x1 = v1 + lam * n1, x2 = v2 + lam * n2;
                const double x3 = v3 + lam * n3, x4 = v4 + lam * n4;
                const double b1 = x1 - w1, b2 = x2 - w2, b3 = x3 - w3, b4 = x4 - w4;
                double f1, f2, f3, f4, f5, o1, o2, o3, o4, cnorm;

                trials++;
                if ((b1 == 0.0 && !(nc1 < b1 && b1 < cut1))
                    || (b2 == 0.0 && !(nc2 < b2 && b2 < cut2))
                    || (b3 == 0.0 && !(nc3 < b3 && b3 < cut3))
                    || (b4 == 0.0 && !(nc4 < b4 && b4 < cut4)))
                    return ZERO_DIVISION;
                f1 = nc1 < b1 && b1 < cut1 ? y1 : quotient(s1, k1, w1, b1, t1, ln2);
                f2 = nc2 < b2 && b2 < cut2 ? y2 : quotient(s2, k2, w2, b2, t2, ln2);
                f3 = nc3 < b3 && b3 < cut3 ? y3 : quotient(s3, k3, w3, b3, t3, ln2);
                if (nc4 < b4 && b4 < cut4) {
                    f4 = y4;
                    f5 = y5;
                } else {
                    f4 = quotient(s4, k4, w4, b4, t4, ln2);
                    f5 = quotient(s5, k5, w4, b4, t5, ln2);
                }
                o1 = b1 - ho * (-f1 - fc * f4);
                o2 = b2 - ho * (d * f1 - f2);
                o3 = b3 - ho * (d * f2 - f3);
                o4 = b4 - ho * (d * f3 - f5);
                cnorm = o1 < 0.0 ? -o1 : o1;
                cnorm = o2 > cnorm ? o2 : -o2 > cnorm ? -o2 : cnorm;
                cnorm = o3 > cnorm ? o3 : -o3 > cnorm ? -o3 : cnorm;
                cnorm = o4 > cnorm ? o4 : -o4 > cnorm ? -o4 : cnorm;
                if (cnorm < rnorm) {
                    v1 = x1; v2 = x2; v3 = x3; v4 = x4;
                    h1 = b1; h2 = b2; h3 = b3; h4 = b4;
                    rnorm = cnorm;
                    z1 = f1; z2 = f2; z3 = f3; z4 = f4; z5 = f5;
                    r1 = o1; r2 = o2; r3 = o3; r4 = o4;
                    stale = cnorm <= ctol;  /* the next iteration is a chord step */
                    accepted = 1;
                    break;
                }
            }
            if (!accepted) {  /* the line search stalled */
                if (!stale)
                    break;  /* the solve gives up */
                stale = 0;  /* retry from the slopes at the iterate */
            }
            if (rnorm <= tol)
                break;
            if (stale) {  /* a chord step, which takes the full update or none */
                ns = n_chord;
                continue;
            }
            ns = n_search;
            u1 = w1 + h1;
            u2 = w2 + h2;
            u3 = w3 + h3;
            u4 = w4 + h4;
            th1 = tanh(k1 * u1);
            th2 = tanh(k2 * u2);
            th3 = tanh(k3 * u3);
            th4 = tanh(k4 * u4);
            th5 = tanh(k5 * u4);
            dc = dcut * max_abs(u1, m1);
            if (-dc < h1 && h1 < dc) {
                e1 = c1 * (1.0 - th1 * th1);
            } else {
                if (h1 == 0.0)
                    return ZERO_DIVISION;
                e1 = (g1 * th1 - z1) / h1;
                e1 = e1 > 0.0 ? e1 : 0.0;
            }
            dc = dcut * max_abs(u2, m2);
            if (-dc < h2 && h2 < dc) {
                e2 = c2 * (1.0 - th2 * th2);
            } else {
                if (h2 == 0.0)
                    return ZERO_DIVISION;
                e2 = (g2 * th2 - z2) / h2;
                e2 = e2 > 0.0 ? e2 : 0.0;
            }
            dc = dcut * max_abs(u3, m3);
            if (-dc < h3 && h3 < dc) {
                e3 = c3 * (1.0 - th3 * th3);
            } else {
                if (h3 == 0.0)
                    return ZERO_DIVISION;
                e3 = (g3 * th3 - z3) / h3;
                e3 = e3 > 0.0 ? e3 : 0.0;
            }
            dc = dcut * max_abs(u4, m4);
            if (-dc < h4 && h4 < dc) {
                e4 = c4 * (1.0 - th4 * th4);
                e5 = c5 * (1.0 - th5 * th5);
            } else {
                if (h4 == 0.0)
                    return ZERO_DIVISION;
                e4 = (g4 * th4 - z4) / h4;
                e5 = (g5 * th5 - z5) / h4;
                e4 = e4 > 0.0 ? e4 : 0.0;
                e5 = e5 > 0.0 ? e5 : 0.0;
            }
        }
        if (!(rnorm <= tol)) {  /* gave up (NaN included): the stabilized step from w */
            double g = y4 != 0.0 ? y5 / y4 : g0;
            const double j11 = 1.0 + ho * cb1, j22 = 1.0 + ho * cb2, j33 = 1.0 + ho * cb3;
            const double j21 = sub * cb1, j32 = sub * cb2, j43 = sub * cb3;
            double p1, q1, p2, q2, p3, q3, piv, n4;

            g = g < glo ? glo : g > ghi ? ghi : g;
            if (j11 == 0.0 || j22 == 0.0 || j33 == 0.0)
                return ZERO_DIVISION;
            p1 = ho * (-y1 - fc * y4) / j11;
            q1 = hf * cb4 / j11;
            p2 = (ho * (d * y1 - y2) - j21 * p1) / j22;
            q2 = -j21 * q1 / j22;
            p3 = (ho * (d * y2 - y3) - j32 * p2) / j33;
            q3 = -j32 * q2 / j33;
            piv = 1.0 + ho * (g * cb4) - j43 * q3;
            if (piv == 0.0)
                return ZERO_DIVISION;
            n4 = (ho * (d * y3 - g * y4) - j43 * p3) / piv;
            v1 = w1 + (p1 - q1 * n4);
            v2 = w2 + (p2 - q2 * n4);
            v3 = w3 + (p3 - q3 * n4);
            v4 = w4 + n4;
            stabilized++;
        }
        w1 = v1;
        w2 = v2;
        w3 = v3;
        w4 = v4;
        t1 = tanh(k1 * w1);
        t2 = tanh(k2 * w2);
        t3 = tanh(k3 * w3);
        t4 = tanh(k4 * w4);
        t5 = tanh(k5 * w4);
        states[4 * step] = w1;
        states[4 * step + 1] = w2;
        states[4 * step + 2] = w3;
        states[4 * step + 3] = w4;
        stages[5 * step] = t1;
        stages[5 * step + 1] = t2;
        stages[5 * step + 2] = t3;
        stages[5 * step + 3] = t4;
        stages[5 * step + 4] = t5;
    }
    work[0] += stabilized;
    work[1] += trials;
    return 0;
}

/* integrators._dg_run_python: the n_traj trajectories of n steps each, one
 * after another, trajectory m's n + 1 states at states[4 (n + 1) m..] and its
 * stage values at stages[5 (n + 1) m..], as dg_trajectory reads and writes
 * them.  work[0] counts the stabilized steps and work[1] the line-search
 * trials of all of them. */
int dg_run(const double *pc, double dt, long n_traj, long n, long max_iter, double tol,
           double ctol, double cut, double dcut, const double *line_search, long n_search,
           double ln2, double *states, double *stages, long *work)
{
    long m;

    work[0] = 0;
    work[1] = 0;
    for (m = 0; m < n_traj; m++)
        if (dg_trajectory(pc, dt, n, max_iter, tol, ctol, cut, dcut, line_search, n_search, ln2,
                          states + 4 * (n + 1) * m, stages + 5 * (n + 1) * m, work))
            return ZERO_DIVISION;
    return 0;
}

/* One trajectory of rk4_run: n steps from the state states[0..3]; step j's
 * state goes to states[4 j..4 j + 3] and its stage values to
 * stages[5 j..5 j + 4] (stages[0..4] are not read). */
static void rk4_trajectory(const double *pc, double dt, long n, double *states, double *stages)
{
    const double k1 = pc[1], k2 = pc[5], k3 = pc[9], k4 = pc[13], k5 = pc[17];
    const double w0 = pc[24], g = pc[25], sc2 = pc[27], sc3 = pc[28], sc4 = pc[29];
    const double h = 0.5 * dt, s = dt / 6.0;
    double x1 = states[0], x2 = states[1], x3 = states[2], x4 = states[3];
    long step;

    for (step = 1; step <= n; step++) {
        double t1, t2, t3, t4, fb, y1, y2, y3, y4, w4;
        double a1, a2, a3, a4, b1, b2, b3, b4, c1, c2, c3, c4, d1, d2, d3, d4;

        t1 = tanh(x1); t2 = tanh(x2); t3 = tanh(x3); t4 = tanh(x4); fb = tanh(g * x4);
        a1 = w0 * (-t1 - fb); a2 = w0 * (-t2 + t1); a3 = w0 * (-t3 + t2); a4 = w0 * (-t4 + t3);
        y1 = x1 + h * a1; y2 = x2 + h * a2; y3 = x3 + h * a3; y4 = x4 + h * a4;
        t1 = tanh(y1); t2 = tanh(y2); t3 = tanh(y3); t4 = tanh(y4); fb = tanh(g * y4);
        b1 = w0 * (-t1 - fb); b2 = w0 * (-t2 + t1); b3 = w0 * (-t3 + t2); b4 = w0 * (-t4 + t3);
        y1 = x1 + h * b1; y2 = x2 + h * b2; y3 = x3 + h * b3; y4 = x4 + h * b4;
        t1 = tanh(y1); t2 = tanh(y2); t3 = tanh(y3); t4 = tanh(y4); fb = tanh(g * y4);
        c1 = w0 * (-t1 - fb); c2 = w0 * (-t2 + t1); c3 = w0 * (-t3 + t2); c4 = w0 * (-t4 + t3);
        y1 = x1 + dt * c1; y2 = x2 + dt * c2; y3 = x3 + dt * c3; y4 = x4 + dt * c4;
        t1 = tanh(y1); t2 = tanh(y2); t3 = tanh(y3); t4 = tanh(y4); fb = tanh(g * y4);
        d1 = w0 * (-t1 - fb); d2 = w0 * (-t2 + t1); d3 = w0 * (-t3 + t2); d4 = w0 * (-t4 + t3);
        x1 = x1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1);
        x2 = x2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2);
        x3 = x3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3);
        x4 = x4 + s * (a4 + 2.0 * b4 + 2.0 * c4 + d4);
        w4 = sc4 * x4;
        states[4 * step] = x1;
        states[4 * step + 1] = x2;
        states[4 * step + 2] = x3;
        states[4 * step + 3] = x4;
        stages[5 * step] = tanh(k1 * x1);
        stages[5 * step + 1] = tanh(k2 * (sc2 * x2));
        stages[5 * step + 2] = tanh(k3 * (sc3 * x3));
        stages[5 * step + 3] = tanh(k4 * w4);
        stages[5 * step + 4] = tanh(k5 * w4);
    }
}

/* integrators._rk4_run_python: the n_traj trajectories of n steps each, laid
 * out as dg_run's. */
void rk4_run(const double *pc, double dt, long n_traj, long n, double *states, double *stages)
{
    long m;

    for (m = 0; m < n_traj; m++)
        rk4_trajectory(pc, dt, n, states + 4 * (n + 1) * m, stages + 5 * (n + 1) * m);
}

/* lyapunov._energy_column_python: V of the n states ws[4 j..4 j + 3] into
 * energy[j]. */
void energy_column(const double *pc, const double *ws, long n, double ln2, double *energy)
{
    const double s1 = pc[0], k1 = pc[1], s2 = pc[4], k2 = pc[5];
    const double s3 = pc[8], k3 = pc[9], s4 = pc[12], k4 = pc[13];
    long j;

    for (j = 0; j < n; j++) {
        const double *w = ws + 4 * j;
        double a, a1, a2, a3, a4;

        /* 0.0 - a: +0.0 at a = -0.0, as abs gives */
        a = k1 * w[0];
        a1 = log_cosh_abs(a > 0.0 ? a : 0.0 - a, ln2);
        a = k2 * w[1];
        a2 = log_cosh_abs(a > 0.0 ? a : 0.0 - a, ln2);
        a = k3 * w[2];
        a3 = log_cosh_abs(a > 0.0 ? a : 0.0 - a, ln2);
        a = k4 * w[3];
        a4 = log_cosh_abs(a > 0.0 ? a : 0.0 - a, ln2);
        energy[j] = s1 * a1 + s2 * a2 + s3 * a3 + s4 * a4;
    }
}
