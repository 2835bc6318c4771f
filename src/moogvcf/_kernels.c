/* C transcriptions of integrators._dg_run_python and _rk4_run_python, and of
 * lyapunov._energy_rows, which both evaluate (state_energy), and of
 * cli._csv_rows_python (at the end); the library exports dg_run, rk4_run
 * and render_rows.  dg_run and rk4_run each put their arguments in a struct
 * batch of independent trajectories, and one driver (run_batch) spreads
 * dg_trajectory(batch, m) or rk4_trajectory(batch, m) over as many threads
 * as the batch has trajectories and the process's affinity mask has CPUs,
 * the calling thread among them, each taking the next m from an atomic
 * counter, in the floating-point environment new threads inherit.
 *
 * Trajectory m reads row 0 of its states alone, and first writes that row's
 * stage values and energy V; a start whose V is not finite (NaN, or inf from
 * an overflowing or infinite state) takes no step.  Then it writes its steps,
 * the energy V of each of its rows and its row of an (n_traj, 3) record: the
 * first row it did not reach, at a state that is not finite or after such a
 * start (0 if none), its stabilized steps and its line-search trials (0 and
 * 0 for RK4).  Its states, stage values and energies from that row on are
 * NAN, the positive quiet NaN that Python's math.nan is, as is any NaN
 * energy.  So every byte is the same at any thread count and on the Python
 * kernels, NaN rows included, and no count is shared between threads.
 *
 * The kernels transcribe the Python ones helper for helper, each with the
 * operands, the order of operations and the libm calls (tanh, sinh, log1p,
 * exp) of its Python counterpart:
 *     log_cosh_abs      lyapunov._log_cosh_abs,
 *     state_energy      lyapunov._energy_rows of one state,
 *     quotient          s * lyapunov.log_cosh_diff(k w, k b, t) / b,
 *     max_abs           integrators._max_abs,
 *     slope             integrators._slope,
 *     dg_trajectory     integrators._dg_run_python of one trajectory, with
 *                       integrators._residual (r at v = w and o of each
 *                       trial), _norm (rnorm and cnorm) and _solve (the
 *                       Newton update and the stabilized step) inline,
 *     rk4_trajectory    integrators._rk4_run_python of one trajectory, with
 *                       model.ladder_field (a, b, c and d) and
 *                       model.stage_tanh (the stage values) inline.
 * The file is compiled with -ffp-contract=off, so no multiply and add fuse:
 * the results match the Python kernels bit for bit.
 *
 * No kernel can fail, so none returns a status: integrators._steps admits
 * 0 < dt < inf alone, and inside that domain, with integrators' positive
 * cutoffs cut and dcut, nothing divides by zero.  With dt > 0,
 * ho = dt omega0 >= 0.  Every slope e_i is +0, positive or NaN: the
 * analytic c (1 - t^2) has |t| <= 1, and the secant is clamped at 0.  So
 * j11, j22 and j33 are >= 1 (or inf or NaN), q1, q2 and q3 are >= 0 and j43
 * is <= 0, and the Newton and the stabilized pivots are >= 1 (or NaN).  A
 * quotient divides by b_i only outside +-cut m_i, and cut m_i > 0; a slope
 * divides by h_i only outside +-dc, and dc >= dcut > 0.  c4 = S4 k4^2 / 2,
 * the divisor of g0, is positive for every model.make_params output
 * (4.45e-308 at the smallest normal r).
 *
 * The file holds no tunables.  Every constant but ln 2 (M_LN2, the double
 * nearest ln 2, which math.log(2.0) is too) comes from the caller: the
 * solver's tolerances, cutoffs and line search at each call, and the 30
 * doubles of a row pc of native.constants, packed once per FilterParams and
 * unpacked by the Python kernels too.  A batch reads an (n_traj, 30) table of
 * them, trajectory m the row at pc + 30 m:
 *     pc[0..19]  the rows (S, k, S k, S k^2 / 2) of model.stage_table,
 *     pc[20..25] d, feedback_coeff, the feedback-ratio bounds glo and ghi
 *                (1, 1 at r = 0), omega0 and feedback_gain,
 *     pc[26..29] the scale entries 1, d, d^2, d^3 of w = D x.
 */

#define _GNU_SOURCE  /* sched_getaffinity, CPU_COUNT and M_LN2 */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

/* n_traj trajectories of n steps, trajectory m's constants at pc[30 m..], its
 * n + 1 states at states[4 (n + 1) m..], stage values at stages[5 (n + 1) m..],
 * energies at energy[(n + 1) m..] and record at record[3 m..], with dg_run's
 * arguments (rk4_run leaves the solver's unset), for run_batch. */
struct batch {
    void (*trajectory)(struct batch *b, long m);
    const double *pc, *line_search;
    double dt, tol, ctol, cut, dcut;
    long n_traj, n, max_iter, n_search;
    double *states, *stages, *energy;
    long *record;
    atomic_long next;  /* the next trajectory to take */
};

/* ln(cosh(a)) of a = |u| >= 0 (or NaN): lyapunov._log_cosh_abs. */
static double log_cosh_abs(double a)
{
    double sh;
    if (a <= 1.0) {
        sh = sinh(0.5 * a);
        return log1p(2.0 * sh * sh);
    }
    return a + log1p(exp(-2.0 * a)) - M_LN2;
}

/* V = sum_i S_i ln(cosh(k_i w_i)) of the state w over the first four rows of
 * pc's stage table, as lyapunov._energy_rows sums it; NAN for any NaN sum. */
static double state_energy(const double *pc, double w1, double w2, double w3, double w4)
{
    const double s1 = pc[0], k1 = pc[1], s2 = pc[4], k2 = pc[5];
    const double s3 = pc[8], k3 = pc[9], s4 = pc[12], k4 = pc[13];
    double a, a1, a2, a3, a4, v;

    /* 0.0 - a: +0.0 at a = -0.0, as abs gives */
    a = k1 * w1;
    a1 = log_cosh_abs(a > 0.0 ? a : 0.0 - a);
    a = k2 * w2;
    a2 = log_cosh_abs(a > 0.0 ? a : 0.0 - a);
    a = k3 * w3;
    a3 = log_cosh_abs(a > 0.0 ? a : 0.0 - a);
    a = k4 * w4;
    a4 = log_cosh_abs(a > 0.0 ? a : 0.0 - a);
    v = s1 * a1 + s2 * a2 + s3 * a3 + s4 * a4;
    return v == v ? v : NAN;
}

/* The end of trajectory m of b at its row last (n + 1 if it stayed finite):
 * NAN in every state, stage value and energy from that row on, and its record. */
static void record_trajectory(struct batch *b, long m, long last, long stabilized, long trials)
{
    const long n = b->n, rows = (n + 1) * m;
    long j;

    for (j = 4 * last; j < 4 * (n + 1); j++)
        b->states[4 * rows + j] = NAN;
    for (j = 5 * last; j < 5 * (n + 1); j++)
        b->stages[5 * rows + j] = NAN;
    for (j = last; j <= n; j++)
        b->energy[rows + j] = NAN;
    b->record[3 * m] = last > n ? 0 : last;
    b->record[3 * m + 1] = stabilized;
    b->record[3 * m + 2] = trials;
}

/* A discrete-gradient quotient s * lyapunov.log_cosh_diff(k w, k b, t) / b,
 * b != 0, as _dg_run_python writes it: log_cosh_diff's |k b| <= 1 branch,
 * else (NaN included) its difference of two log_cosh_abs values. */
static double quotient(double s, double k, double w, double b, double t)
{
    double q = k * b, a = k * w, sh;
    if (-1.0 <= q && q <= 1.0) {
        sh = sinh(0.5 * q);
        return s * log1p(2.0 * sh * sh + sinh(q) * t) / b;
    }
    return s * (log_cosh_abs(fabs(a + q)) - log_cosh_abs(fabs(a))) / b;
}

/* max(m, |u|), m if u is NaN: integrators._max_abs */
static double max_abs(double u, double m)
{
    return u > m ? u : -u > m ? -u : m;
}

/* A quotient's slope in v_i at the iterate, integrators._slope: c (1 - th^2)
 * of the stage's tanh th there within dc of coincidence, else the secant
 * (g th - z) / h clamped at 0, as a convex potential's is. */
static double slope(double c, double g, double th, double z, double h, double dc)
{
    double e;

    if (-dc < h && h < dc)
        return c * (1.0 - th * th);
    e = (g * th - z) / h;
    return e > 0.0 ? e : 0.0;
}

/* Trajectory m of a dg_run batch, with the constants pc of its row: the
 * stage values and the energy of its state states[0..3], those of its rows,
 * to row 0 of stages and energy, then n steps into row j = 1..n of states and
 * stages until a state is not finite (none if that energy is not); then the
 * energy of each row written, and record_trajectory. */
static void dg_trajectory(struct batch *b, long m)
{
    const double *pc = b->pc + 30 * m, *line_search = b->line_search;
    const double dt = b->dt, tol = b->tol, ctol = b->ctol, cut = b->cut, dcut = b->dcut;
    const long n = b->n, max_iter = b->max_iter, n_search = b->n_search;
    double *states = b->states + 4 * (n + 1) * m, *stages = b->stages + 5 * (n + 1) * m;
    double *energy = b->energy + (n + 1) * m;
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
    double t1, t2, t3, t4, t5;
    double e1 = 0.0, e2 = 0.0, e3 = 0.0, e4 = 0.0, e5 = 0.0;
    long stabilized = 0, trials = 0, step, end, it, i, ns;

    kmax = k2 > kmax ? k2 : kmax;
    kmax = k3 > kmax ? k3 : kmax;
    kmax = k4 > kmax ? k4 : kmax;
    kmax = k5 > kmax ? k5 : kmax;
    g0 = c5 / c4;
    t1 = tanh(k1 * w1);
    t2 = tanh(k2 * w2);
    t3 = tanh(k3 * w3);
    t4 = tanh(k4 * w4);
    t5 = tanh(k5 * w4);
    stages[0] = t1;
    stages[1] = t2;
    stages[2] = t3;
    stages[3] = t4;
    stages[4] = t5;
    energy[0] = state_energy(pc, w1, w2, w3, w4);
    end = isfinite(energy[0]) ? n : 0;  /* a start whose V is not finite takes no step */
    for (step = 1; step <= end; step++) {
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
            double p1, q1, p2, q2, p3, q3, n1, n2, n3, n4;
            double u1, u2, u3, u4, dc;
            int accepted = 0;

            p1 = -r1 / j11;
            q1 = hf * e4 / j11;
            p2 = (-r2 - j21 * p1) / j22;
            q2 = -j21 * q1 / j22;
            p3 = (-r3 - j32 * p2) / j33;
            q3 = -j32 * q2 / j33;
            n4 = (-r4 - j43 * p3) / (1.0 + ho * e5 - j43 * q3);
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
                f1 = nc1 < b1 && b1 < cut1 ? y1 : quotient(s1, k1, w1, b1, t1);
                f2 = nc2 < b2 && b2 < cut2 ? y2 : quotient(s2, k2, w2, b2, t2);
                f3 = nc3 < b3 && b3 < cut3 ? y3 : quotient(s3, k3, w3, b3, t3);
                if (nc4 < b4 && b4 < cut4) {
                    f4 = y4;
                    f5 = y5;
                } else {
                    f4 = quotient(s4, k4, w4, b4, t4);
                    f5 = quotient(s5, k5, w4, b4, t5);
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
            e1 = slope(c1, g1, tanh(k1 * u1), z1, h1, dcut * max_abs(u1, m1));
            e2 = slope(c2, g2, tanh(k2 * u2), z2, h2, dcut * max_abs(u2, m2));
            e3 = slope(c3, g3, tanh(k3 * u3), z3, h3, dcut * max_abs(u3, m3));
            dc = dcut * max_abs(u4, m4);
            e4 = slope(c4, g4, tanh(k4 * u4), z4, h4, dc);
            e5 = slope(c5, g5, tanh(k5 * u4), z5, h4, dc);
        }
        if (!(rnorm <= tol)) {  /* gave up (NaN included): the stabilized step from w */
            double g = y4 != 0.0 ? y5 / y4 : g0;
            const double j11 = 1.0 + ho * cb1, j22 = 1.0 + ho * cb2, j33 = 1.0 + ho * cb3;
            const double j21 = sub * cb1, j32 = sub * cb2, j43 = sub * cb3;
            double p1, q1, p2, q2, p3, q3, n4;

            g = g < glo ? glo : g > ghi ? ghi : g;
            p1 = ho * (-y1 - fc * y4) / j11;
            q1 = hf * cb4 / j11;
            p2 = (ho * (d * y1 - y2) - j21 * p1) / j22;
            q2 = -j21 * q1 / j22;
            p3 = (ho * (d * y2 - y3) - j32 * p2) / j33;
            q3 = -j32 * q2 / j33;
            n4 = (ho * (d * y3 - g * y4) - j43 * p3) / (1.0 + ho * (g * cb4) - j43 * q3);
            v1 = w1 + (p1 - q1 * n4);
            v2 = w2 + (p2 - q2 * n4);
            v3 = w3 + (p3 - q3 * n4);
            v4 = w4 + n4;
            stabilized++;
        }
        if (!(isfinite(v1) && isfinite(v2) && isfinite(v3) && isfinite(v4)))
            break;  /* the trajectory stops at its first row that is not finite */
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
    for (i = 1; i < step; i++)
        energy[i] = state_energy(pc, states[4 * i], states[4 * i + 1], states[4 * i + 2],
                                 states[4 * i + 3]);
    record_trajectory(b, m, step, stabilized, trials);
}

/* Take trajectories from b->next and run them until none is left. */
static void *take_trajectories(void *arg)
{
    struct batch *b = arg;
    long m;

    while ((m = atomic_fetch_add_explicit(&b->next, 1, memory_order_relaxed)) < b->n_traj)
        b->trajectory(b, m);
    return NULL;
}

/* The number of threads for a batch of n_traj trajectories: n_traj or the
 * CPUs this process may run on, whichever is fewer; 1 for a batch of one. */
static long batch_threads(long n_traj)
{
    cpu_set_t cpus;
    long count;

    if (n_traj < 2 || sched_getaffinity(0, sizeof cpus, &cpus))
        return 1;
    count = CPU_COUNT(&cpus);
    return count < n_traj ? count : n_traj;
}

/* Run every trajectory of b, spread over batch_threads(b->n_traj) threads,
 * the calling thread among them; if a thread cannot be started, those
 * running take its share.  Every thread is joined before the return. */
static void run_batch(struct batch *b)
{
    const long threads = batch_threads(b->n_traj);
    pthread_t thread[threads];  /* thread[0] stays unset: the calling thread is the first */
    long i, started;

    atomic_init(&b->next, 0);
    for (started = 1; started < threads; started++)
        if (pthread_create(&thread[started], NULL, take_trajectories, b))
            break;
    take_trajectories(b);
    for (i = 1; i < started; i++)
        pthread_join(thread[i], NULL);
}

/* integrators._dg_run_python: the n_traj trajectories of n steps each, laid
 * out as struct batch has them, by run_batch. */
void dg_run(const double *pc, double dt, long n_traj, long n, long max_iter, double tol,
            double ctol, double cut, double dcut, const double *line_search, long n_search,
            double *states, double *stages, double *energy, long *record)
{
    struct batch b = {.trajectory = dg_trajectory, .pc = pc, .line_search = line_search,
                      .dt = dt, .tol = tol, .ctol = ctol, .cut = cut, .dcut = dcut,
                      .n_traj = n_traj, .n = n, .max_iter = max_iter, .n_search = n_search,
                      .states = states, .stages = stages, .energy = energy, .record = record};

    run_batch(&b);
}

/* Trajectory m of an rk4_run batch, with the constants pc of its row: the
 * stage values and the energy at w = D x of its state states[0..3], those of
 * its rows, to row 0 of stages and energy, then n steps into row j = 1..n of
 * states and stages until a state is not finite (none if that energy is
 * not); then the energy of each row written, and record_trajectory with no
 * work. */
static void rk4_trajectory(struct batch *b, long m)
{
    const double *pc = b->pc + 30 * m, dt = b->dt, h = 0.5 * dt, s = dt / 6.0;
    const long n = b->n;
    double *states = b->states + 4 * (n + 1) * m, *stages = b->stages + 5 * (n + 1) * m;
    double *energy = b->energy + (n + 1) * m;
    const double k1 = pc[1], k2 = pc[5], k3 = pc[9], k4 = pc[13], k5 = pc[17];
    const double w0 = pc[24], g = pc[25];
    const double sc1 = pc[26], sc2 = pc[27], sc3 = pc[28], sc4 = pc[29];
    double x1 = states[0], x2 = states[1], x3 = states[2], x4 = states[3], w4 = sc4 * x4;
    long step, end, j;

    stages[0] = tanh(k1 * x1);
    stages[1] = tanh(k2 * (sc2 * x2));
    stages[2] = tanh(k3 * (sc3 * x3));
    stages[3] = tanh(k4 * w4);
    stages[4] = tanh(k5 * w4);
    energy[0] = state_energy(pc, sc1 * x1, sc2 * x2, sc3 * x3, w4);
    end = isfinite(energy[0]) ? n : 0;  /* a start whose V is not finite takes no step */
    for (step = 1; step <= end; step++) {
        double t1, t2, t3, t4, fb, y1, y2, y3, y4;
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
        if (!(isfinite(x1) && isfinite(x2) && isfinite(x3) && isfinite(x4)))
            break;  /* the trajectory stops at its first row that is not finite */
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
    for (j = 1; j < step; j++)
        energy[j] = state_energy(pc, sc1 * states[4 * j], sc2 * states[4 * j + 1],
                                 sc3 * states[4 * j + 2], sc4 * states[4 * j + 3]);
    record_trajectory(b, m, step, 0, 0);
}

/* integrators._rk4_run_python: the n_traj trajectories of n steps each, laid
 * out as struct batch has them, by run_batch. */
void rk4_run(const double *pc, double dt, long n_traj, long n, double *states, double *stages,
             double *energy, long *record)
{
    struct batch b = {.trajectory = rk4_trajectory, .pc = pc, .dt = dt, .n_traj = n_traj,
                      .n = n, .states = states, .stages = stages, .energy = energy,
                      .record = record};

    run_batch(&b);
}

/* cli._csv_rows_python's repr of a double, in two steps.  shortest finds the
 * shortest decimal that rounds to the double, the one nearest it among
 * several, by Ryu's d2s (Adams 2018, "Ryu: fast float-to-string conversion",
 * PLDI 2018) with its full tables: each 128-bit multiplier it needs is one
 * read of pow5_table or pow5_inv_table, the 617 it can need, which
 * build_tables fills once, when the library loads, from the small tables of
 * 13 entries (a power of 5 below 5^26 and a 2-bit correction each).
 * repr_double then lays the digits out as repr does, with no division loop:
 * it counts them by comparisons and writes them two at a time, from 32-bit
 * halves.  A float takes about 45 ns on simulate's tables (2-vCPU Xeon).
 * The 64 x 64 -> 128-bit products need a compiler with unsigned __int128
 * (GCC and Clang on 64-bit targets); elsewhere the library does not build,
 * and the Python kernels and renderer run. */
__extension__ typedef unsigned __int128 u128;

/* 5^0 .. 5^25 */
static const uint64_t POW5[26] = {
    1u, 5u, 25u, 125u,
    625u, 3125u, 15625u, 78125u,
    390625u, 1953125u, 9765625u, 48828125u,
    244140625u, 1220703125u, 6103515625u, 30517578125u,
    152587890625u, 762939453125u, 3814697265625u, 19073486328125u,
    95367431640625u, 476837158203125u, 2384185791015625u, 11920928955078125u,
    59604644775390625u, 298023223876953125u
};
/* floor(5^i / 2^(pow5bits(i) - 125)), the 125 leading bits of 5^i, as
 * {low, high} halves, at i = 26 b for b = 0 .. 12 */
static const uint64_t POW5_SPLIT[13][2] = {
    {0x0000000000000000u, 0x1000000000000000u}, {0x0000000000000000u, 0x14adf4b7320334b9u},
    {0x0e549208b31adb10u, 0x1aba4714957d300du}, {0x6dc6ad264d8f0866u, 0x1145b7e285bf98f5u},
    {0xeb1dbd923d8596cau, 0x1652efdc6018a1fcu}, {0xb4c1b80b22ae923cu, 0x1cda62055b2d9d83u},
    {0x5bb28b4e8f7e4c30u, 0x12a5568b9f52f416u}, {0xf08aed437682d4fbu, 0x1819651531f9e78fu},
    {0xb4ee134ad99bf150u, 0x1f25c186a6f04c28u}, {0x16499ecb70c25f03u, 0x1420eb449c8842e6u},
    {0x85a56ead360865b0u, 0x1a03fde214caf085u}, {0x093db1d57999890bu, 0x10cfeb353a97dad8u},
    {0xcf38bb735e3f36acu, 0x15baaf44fa52673eu}
};
/* the 2-bit correction of pow5_split(i), i = 0 .. 325, 16 to a word from its
 * low bits up */
static const uint32_t POW5_OFFSETS[21] = {
    0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x40000000u, 0x59695995u,
    0x55545555u, 0x56555515u, 0x41150504u, 0x40555410u, 0x44555145u, 0x44504540u,
    0x45555550u, 0x40004000u, 0x96440440u, 0x55565565u, 0x54454045u, 0x40154151u,
    0x55559155u, 0x51405555u, 0x00000105u
};
/* floor(2^(pow5bits(i) + 124) / 5^i) + 1, 2^125 / 5^i rounded up to 125
 * bits, as {low, high} halves, at i = 26 b for b = 0 .. 12 */
static const uint64_t POW5_INV_SPLIT[13][2] = {
    {0x0000000000000001u, 0x2000000000000000u}, {0x52a6c95fc0655034u, 0x18c240c4aecb13bbu},
    {0x7ca8d50071dfc806u, 0x1327fc58da0f6ff5u}, {0x6520247d3556476eu, 0x1da48ce468e7c702u},
    {0x6139cdd76802e6e9u, 0x16ef5b40c2fc7779u}, {0xf951a7ff43de8c79u, 0x11bebdf578b2f391u},
    {0x7be8bee8d6e957e8u, 0x1b758d848fac54b0u}, {0x8bd3f9e999a423eau, 0x153eda614071a3b7u},
    {0x0848f973cb3ee3ceu, 0x10701bd527b4978cu}, {0x153285ebb9efbfa2u, 0x196fbb9bb44db44du},
    {0xadeee7f86c07b696u, 0x13ae3591f5b4d936u}, {0x4d686a4eaf182222u, 0x1e74404f3daada91u},
    {0x98c0a106e09ebd9fu, 0x17900ea4fda7c257u}
};
/* the 2-bit correction of pow5_inv(i), i = 0 .. 290, packed as POW5_OFFSETS */
static const uint32_t POW5_INV_OFFSETS[19] = {
    0x54544554u, 0x04055545u, 0x10041000u, 0x00400414u, 0x40010000u, 0x41155555u,
    0x00000454u, 0x00010044u, 0x40000000u, 0x44000041u, 0x50454450u, 0x55550054u,
    0x51655554u, 0x40004000u, 0x01000001u, 0x00010500u, 0x51515411u, 0x05555554u,
    0x00000000u
};
static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The bits of 5^e, ceil(log2(5^e)) (1 at e = 0), for 0 <= e <= 3528. */
static int32_t pow5bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359u) >> 19) + 1;
}

/* floor(log10(2^e)), for 0 <= e <= 1650. */
static int32_t log10_pow2(int32_t e)
{
    return (int32_t)(((uint32_t)e * 78913u) >> 18);
}

/* floor(log10(5^e)), for 0 <= e <= 2620. */
static int32_t log10_pow5(int32_t e)
{
    return (int32_t)(((uint32_t)e * 732923u) >> 20);
}

/* The 192-bit product of m < 2^64 and the 128-bit f, shifted right by
 * 0 < shift < 64 and cut to 128 bits, plus add. */
static u128 mul_shift_add(uint64_t m, u128 f, int32_t shift, uint32_t add)
{
    const u128 low = (u128)m * (uint64_t)f, high = (u128)m * (uint64_t)(f >> 64);
    const u128 top = high + (low >> 64);  /* bits 64 .. 191 of the product */

    return ((top << (64 - shift)) | ((uint64_t)low >> shift)) + add;
}

/* The 125 leading bits of 5^i, 0 <= i <= 325: POW5_SPLIT's entry for i. */
static u128 pow5_split(int32_t i)
{
    const int32_t base = i / 26, offset = i - 26 * base;
    const u128 f = (u128)POW5_SPLIT[base][1] << 64 | POW5_SPLIT[base][0];

    if (offset == 0)
        return f;
    return mul_shift_add(POW5[offset], f, pow5bits(i) - pow5bits(26 * base),
                         (POW5_OFFSETS[i / 16] >> (i % 16 * 2)) & 3u);
}

/* 2^125 / 5^i rounded up to 125 bits, 0 <= i <= 290: POW5_INV_SPLIT's
 * entry for i. */
static u128 pow5_inv(int32_t i)
{
    const int32_t base = (i + 25) / 26, offset = 26 * base - i;
    const u128 f = (u128)POW5_INV_SPLIT[base][1] << 64 | POW5_INV_SPLIT[base][0];

    if (offset == 0)
        return f;
    return mul_shift_add(POW5[offset], f - 1, pow5bits(26 * base) - pow5bits(i),
                         1u + ((POW5_INV_OFFSETS[i / 16] >> (i % 16 * 2)) & 3u));
}

/* pow5_split(i), i = 0 .. 325, and pow5_inv(i), i = 0 .. 290: every
 * multiplier shortest reads, 9.9 KB, filled by build_tables at load */
static u128 pow5_table[326], pow5_inv_table[291];

/* Fill pow5_table and pow5_inv_table, once, when the library loads and
 * before any call into it. */
__attribute__((constructor)) static void build_tables(void)
{
    int32_t i;

    for (i = 0; i < 326; i++)
        pow5_table[i] = pow5_split(i);
    for (i = 0; i < 291; i++)
        pow5_inv_table[i] = pow5_inv(i);
}

/* floor(m f / 2^shift) for m < 2^55, a 125-bit f and 64 <= shift < 192. */
static uint64_t mul_shift(uint64_t m, u128 f, int32_t shift)
{
    const u128 low = (u128)m * (uint64_t)f, high = (u128)m * (uint64_t)(f >> 64);

    return (uint64_t)((high + (low >> 64)) >> (shift - 64));
}

/* Whether 5^p divides v > 0. */
static int multiple_of_pow5(uint64_t v, int32_t p)
{
    int32_t count = 0;

    for (; v % 5 == 0; v /= 5)
        count++;
    return count >= p;
}

/* The decimal digits * 10^exponent. */
struct decimal {
    uint64_t digits;
    int32_t exponent;
};

/* Ryu's d2d: the shortest decimal in the interval of reals that round to
 * the positive double of mantissa field ieee_mantissa and exponent field
 * ieee_exponent < 2047, the one nearest the double if there are several
 * (half to even).  Its ends are included when the double's significand is
 * even, as round-half-to-even reading includes them. */
static struct decimal shortest(uint64_t ieee_mantissa, uint32_t ieee_exponent)
{
    /* the double is mv 2^e2, mv = 4 m2, and the midpoints to its neighbours
     * are (mv + 2) 2^e2 and (mv - 1 - mm_shift) 2^e2: mm_shift is 0 at a
     * power of 2 above the smallest normal, whose lower neighbour is nearer */
    const int32_t e2 = (ieee_exponent ? (int32_t)ieee_exponent : 1) - 1077;
    const uint64_t m2 = ieee_exponent ? (UINT64_C(1) << 52) | ieee_mantissa : ieee_mantissa;
    const uint64_t mv = 4 * m2;
    const uint64_t mm_shift = ieee_mantissa != 0 || ieee_exponent <= 1;
    const int even = (m2 & 1) == 0;
    uint64_t vr, vp, vm;
    int32_t q, i, e10, removed = 0;
    int vm_zeros = 0, vr_zeros = 0, round_up = 0;
    uint32_t last = 0;
    struct decimal out;
    u128 f;

    /* vr, vp and vm are mv, mv + 2 and mv - 1 - mm_shift times 2^e2 over
     * 10^e10, floored; vr_zeros and vm_zeros say that vr and vm are exact */
    if (e2 >= 0) {
        q = log10_pow2(e2) - (e2 > 3);
        e10 = q;
        f = pow5_inv_table[q];
        i = -e2 + q + 124 + pow5bits(q);
        vr = mul_shift(mv, f, i);
        vp = mul_shift(mv + 2, f, i);
        vm = mul_shift(mv - 1 - mm_shift, f, i);
        if (q <= 21) {  /* one of mv, mv + 2 and mv - 1 - mm_shift at most is a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (even)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= (uint64_t)multiple_of_pow5(mv + 2, q);
        }
    } else {
        q = log10_pow5(-e2) - (-e2 > 1);
        e10 = q + e2;
        i = -e2 - q;
        f = pow5_table[i];
        i = q - pow5bits(i) + 125;
        vr = mul_shift(mv, f, i);
        vp = mul_shift(mv + 2, f, i);
        vm = mul_shift(mv - 1 - mm_shift, f, i);
        if (q <= 1) {  /* mv has two trailing zero bits, mv + 2 one */
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((UINT64_C(1) << q) - 1)) == 0;
        }
    }

    /* remove the digits that vp and vm do not need, last digit removed from
     * vr in last */
    if (vm_zeros || vr_zeros) {  /* the rare case: an end or vr is exact */
        for (; vp / 10 > vm / 10; removed++) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        if (vm_zeros)
            for (; vm % 10 == 0; removed++) {
                vr_zeros &= last == 0;
                last = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
            }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;  /* exactly ...50..0: round half to even */
        round_up = (vr == vm && (!even || !vm_zeros)) || last >= 5;
    } else {
        if (vp / 100 > vm / 100) {  /* two digits at a time, the most common step */
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        for (; vp / 10 > vm / 10; removed++) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
        }
        round_up = round_up || vr == vm;
    }
    out.digits = vr + (uint64_t)round_up;
    out.exponent = e10 + removed;
    return out;
}

/* The number of decimal digits of 0 < v < 10^17. */
static int decimal_length(uint64_t v)
{
    if (v >= UINT64_C(100000000)) {
        if (v >= UINT64_C(10000000000000000)) return 17;
        if (v >= UINT64_C(1000000000000000)) return 16;
        if (v >= UINT64_C(100000000000000)) return 15;
        if (v >= UINT64_C(10000000000000)) return 14;
        if (v >= UINT64_C(1000000000000)) return 13;
        if (v >= UINT64_C(100000000000)) return 12;
        if (v >= UINT64_C(10000000000)) return 11;
        if (v >= UINT64_C(1000000000)) return 10;
        return 9;
    }
    if (v >= 10000000u) return 8;
    if (v >= 1000000u) return 7;
    if (v >= 100000u) return 6;
    if (v >= 10000u) return 5;
    if (v >= 1000u) return 4;
    if (v >= 100u) return 3;
    if (v >= 10u) return 2;
    return 1;
}

/* The n digits of v < 10^n at out[0 .. n - 1], two at a time from the last:
 * above 8 digits the low 8 from one 32-bit half, then the rest from the
 * other, v / 10^8. */
static void write_digits(uint64_t v, int n, char *out)
{
    uint32_t w = (uint32_t)v, low, high;

    if (n > 8) {
        const uint64_t top = v / 100000000u;

        w = (uint32_t)(v - 100000000u * top);
        low = w % 10000u;
        high = w / 10000u;
        memcpy(out + n - 2, DIGIT_PAIRS + 2 * (low % 100u), 2);
        memcpy(out + n - 4, DIGIT_PAIRS + 2 * (low / 100u), 2);
        memcpy(out + n - 6, DIGIT_PAIRS + 2 * (high % 100u), 2);
        memcpy(out + n - 8, DIGIT_PAIRS + 2 * (high / 100u), 2);
        n -= 8;
        w = (uint32_t)top;
    }
    for (; n >= 2; n -= 2, w /= 100u)
        memcpy(out + n - 2, DIGIT_PAIRS + 2 * (w % 100u), 2);
    if (n)
        out[0] = (char)('0' + w);
}

/* The longest repr, -2.2250738585072014e-308's, and the bytes repr_double
 * may write: its repr and scratch bytes past it from its fixed-width moves,
 * to out[33] at most. */
#define REPR_LONGEST 24
#define REPR_SPACE 34

/* repr(x) at out, of REPR_SPACE bytes, with no terminating NUL; its length:
 * "nan" for any NaN, "-" before a negative x (-0.0 included), "inf", and
 * the digits of shortest with the decimal point at decpt, where x is
 * 0.DIGITS * 10^decpt: fixed notation for -4 < decpt <= 16, with ".0" after
 * an integral value, and otherwise d[.ddd]e+-XX, with two exponent digits
 * at least.  The bytes past the repr are left undefined. */
static int repr_double(double x, char *out)
{
    uint64_t bits, mantissa;
    uint32_t ieee_exponent;
    struct decimal d;
    int len = 0, n, decpt, e;

    memcpy(&bits, &x, sizeof bits);
    ieee_exponent = (uint32_t)(bits >> 52) & 0x7ffu;
    mantissa = bits & ((UINT64_C(1) << 52) - 1);
    if (ieee_exponent == 0x7ffu && mantissa) {
        memcpy(out, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        out[len++] = '-';
    if (ieee_exponent == 0x7ffu || (ieee_exponent == 0 && mantissa == 0)) {
        memcpy(out + len, ieee_exponent ? "inf" : "0.0", 3);
        return len + 3;
    }
    d = shortest(mantissa, ieee_exponent);
    n = decimal_length(d.digits);
    decpt = d.exponent + n;
    if (decpt <= -4 || decpt > 16) {  /* the digits one place on, their first moved back */
        write_digits(d.digits, n, out + len + 1);
        out[len] = out[len + 1];
        out[len + 1] = '.';  /* or the 'e' below, for one digit */
        len += n > 1 ? n + 1 : 1;
        e = decpt - 1;
        out[len++] = 'e';
        out[len++] = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100) {
            out[len++] = (char)('0' + e / 100);
            e %= 100;
        }
        memcpy(out + len, DIGIT_PAIRS + 2 * e, 2);
        return len + 2;
    }
    if (decpt <= 0) {  /* 0.000ddd */
        memcpy(out + len, "0.000", 5);
        len += 2 - decpt;
        write_digits(d.digits, n, out + len);
        return len + n;
    }
    write_digits(d.digits, n, out + len);
    if (decpt < n) {  /* ddd.ddd: the digits after the point, 16 at most, one place on */
        memmove(out + len + decpt + 1, out + len + decpt, 16);
        out[len + decpt] = '.';
        return len + n + 1;
    }
    memset(out + len + n, '0', 16);  /* ddd000.0, with 15 zeros at most */
    memcpy(out + len + decpt, ".0", 2);
    return len + decpt + 2;
}

/* cli._csv_rows_python on the n rows of k doubles of values, in C order: the
 * repr of each value, a ',' after each value but a row's last and a '\n'
 * after that, into text, of capacity bytes.  Each repr moves with one copy
 * of REPR_LONGEST bytes while the text has more left, and with an exact
 * copy after that.  The number of bytes written; -1 if the text would not
 * fit, and then nothing is written past text[capacity - 1]. */
long render_rows(const double *values, long n, long k, char *text, long capacity)
{
    long used = 0, i, j;
    char repr[REPR_SPACE];
    int len;

    for (i = 0; i < n; i++)
        for (j = 0; j < k; j++) {
            len = repr_double(values[k * i + j], repr);
            if (capacity - used > REPR_LONGEST)
                memcpy(text + used, repr, REPR_LONGEST);
            else if (len < capacity - used)  /* room for the repr and its separator */
                memcpy(text + used, repr, (size_t)len);
            else
                return -1;
            used += len;
            text[used++] = j + 1 < k ? ',' : '\n';
        }
    return used;
}
