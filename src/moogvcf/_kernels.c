/* C transcriptions of integrators._dg_run_python and _rk4_run_python, and of
 * lyapunov._energy_rows, which both evaluate (state_energy); the library
 * exports dg_run and rk4_run alone.  Each puts its arguments in a struct
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
 * Each statement keeps the operands, the order of operations and the libm
 * calls (tanh, sinh, log1p, exp) of the Python line it transcribes, and the
 * file is compiled with -ffp-contract=off, so no multiply and add fuse: the
 * results match the Python kernels bit for bit.  Where Python would raise
 * ZeroDivisionError, a kernel returns ZERO_DIVISION and the caller raises.
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

#define ZERO_DIVISION 1

/* n_traj trajectories of n steps, trajectory m's constants at pc[30 m..], its
 * n + 1 states at states[4 (n + 1) m..], stage values at stages[5 (n + 1) m..],
 * energies at energy[(n + 1) m..] and record at record[3 m..], with dg_run's
 * arguments (rk4_run leaves the solver's unset), for run_batch. */
struct batch {
    int (*trajectory)(struct batch *b, long m);
    const double *pc, *line_search;
    double dt, tol, ctol, cut, dcut;
    long n_traj, n, max_iter, n_search;
    double *states, *stages, *energy;
    long *record;
    atomic_long next;   /* the next trajectory to take */
    atomic_int failed;  /* a trajectory returned ZERO_DIVISION */
};

/* ln(cosh(a)) of a = |u| >= 0 (or NaN), as lyapunov.log_cosh takes it. */
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

/* A discrete-gradient quotient S log_cosh_diff(k w, k b, t) / b, b != 0, as
 * _dg_run_python writes it: the |k b| <= 1 branch of lyapunov.log_cosh_diff
 * inline, else (NaN included) its difference of two log_cosh values. */
static double quotient(double s, double k, double w, double b, double t)
{
    double q = k * b, a = k * w, sh;
    if (-1.0 <= q && q <= 1.0) {
        sh = sinh(0.5 * q);
        return s * log1p(2.0 * sh * sh + sinh(q) * t) / b;
    }
    return s * (log_cosh_abs(fabs(a + q)) - log_cosh_abs(fabs(a))) / b;
}

/* max(m, |u|) as the chain of comparisons of _dg_run_python */
static double max_abs(double u, double m)
{
    return u > m ? u : -u > m ? -u : m;
}

/* Trajectory m of a dg_run batch, with the constants pc of its row: the
 * stage values and the energy of its state states[0..3], those of its rows,
 * to row 0 of stages and energy, then n steps into row j = 1..n of states and
 * stages until a state is not finite (none if that energy is not); then the
 * energy of each row written, and record_trajectory. */
static int dg_trajectory(struct batch *b, long m)
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
    if (c4 == 0.0)
        return ZERO_DIVISION;
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
    return 0;
}

/* Take trajectories from b->next and run them until none is left or one
 * has returned ZERO_DIVISION. */
static void *take_trajectories(void *arg)
{
    struct batch *b = arg;
    long m;

    while (!atomic_load_explicit(&b->failed, memory_order_relaxed)
           && (m = atomic_fetch_add_explicit(&b->next, 1, memory_order_relaxed)) < b->n_traj)
        if (b->trajectory(b, m))
            atomic_store_explicit(&b->failed, 1, memory_order_relaxed);
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
 * running take its share.  Every thread is joined before the return.
 * ZERO_DIVISION if any trajectory returned it, else 0. */
static int run_batch(struct batch *b)
{
    const long threads = batch_threads(b->n_traj);
    pthread_t thread[threads];  /* thread[0] stays unset: the calling thread is the first */
    long i, started;

    atomic_init(&b->next, 0);
    atomic_init(&b->failed, 0);
    for (started = 1; started < threads; started++)
        if (pthread_create(&thread[started], NULL, take_trajectories, b))
            break;
    take_trajectories(b);
    for (i = 1; i < started; i++)
        pthread_join(thread[i], NULL);
    return atomic_load(&b->failed) ? ZERO_DIVISION : 0;
}

/* integrators._dg_run_python: the n_traj trajectories of n steps each, laid
 * out as struct batch has them, by run_batch. */
int dg_run(const double *pc, double dt, long n_traj, long n, long max_iter, double tol,
           double ctol, double cut, double dcut, const double *line_search, long n_search,
           double *states, double *stages, double *energy, long *record)
{
    struct batch b = {.trajectory = dg_trajectory, .pc = pc, .line_search = line_search,
                      .dt = dt, .tol = tol, .ctol = ctol, .cut = cut, .dcut = dcut,
                      .n_traj = n_traj, .n = n, .max_iter = max_iter, .n_search = n_search,
                      .states = states, .stages = stages, .energy = energy, .record = record};

    return run_batch(&b);
}

/* Trajectory m of an rk4_run batch, with the constants pc of its row: the
 * stage values and the energy at w = D x of its state states[0..3], those of
 * its rows, to row 0 of stages and energy, then n steps into row j = 1..n of
 * states and stages until a state is not finite (none if that energy is
 * not); then the energy of each row written, and record_trajectory with no
 * work. */
static int rk4_trajectory(struct batch *b, long m)
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
    return 0;
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
