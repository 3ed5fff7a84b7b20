"""Bethe Ansatz equations: residuals, Newton solvers, and classification.

Exponential-form residuals use the product over *all* k (the self term
contributes a factor -1, which absorbs the minus sign of the textbook form):

  chain: (f(l_j - eta/2)/f(l_j + eta/2))^L + prod_k f(l_j - l_k - eta)/f(l_j - l_k + eta)
  Bose:  e^{i k_j L'} + prod_l (k_j - k_l + ic)/(k_j - k_l - ic)

with f and eta those of the chain's coordinate.ChainKernel: XXX (f = id,
eta = i) or xxz_kernel(gamma) (f = sh, eta = i gamma, Delta = cos(gamma)).
Every factor is read from the kernel's log_ratio, log f(x - it) -
log f(x + it) in real arithmetic: one real log and one arctan2 per pair,
where numpy's complex log took 180 ns an entry against 2.3 ns for arctan.
The Bose factor is the rational one at t = -c, (k + ic)/(k - ic).  The
residuals run over rows j in blocks of about BLOCK pairs, so no N x N array
is built.
Logarithmic form for real roots (integers n_j, principal arctan), in the
phase normalization for both chains:

  F_j = L theta_1(l_j) - 2 pi I_j - sum_k theta_2(l_j - l_k) = 0,
  I_j = n_j - (N + 1 + L mod 2)/2,

so I_j is an integer for L - N odd and a half-odd integer for L - N even
(Takahashi's parity rule) and the log form holds on the principal branch of
the exponential form at every L.  SolveReport.residual is max_j |F_j|, in
radians; the exponential form follows it to first order.
F cannot be computed closer to 0 than a few ulp of its largest terms, pi L,
so a chain solve stops at max |F| < max(TOL, 8 ulp(pi L)): TOL up to
L = 325, 3.6e-12 at L = 1024, 2.9e-11 at L = 8192.

Every log-form residual and Jacobian is an N x N broadcast over the
differences l_j - l_k on a leading lane axis: a system's F(x, lanes) and
J(x, lanes) take x of shape (n,) or (B, n), B independent systems, and
`lanes` picks the rows of per-lane parameters (quantum numbers of shape
(B, N), chain lengths, root counts) that x holds; None means all of them.
No Python loop runs over roots or over lanes.  All solves go through one
damped-Newton routine with analytic Jacobians: step-halving damping, a seed
per system, a tolerance per system (TOL, or a chain's floor above), max 200
steps.  A chain solve takes its seed from the kernel: where the kernel holds
several (XXX: the free magnon and Hulthen's half-filled counting function),
it evaluates F on each and starts from the one with the smallest max |F_j|,
the first on a tie; a lane with some |I_j| past Takahashi's (L - N - 1)/2,
which has no finite real solution, starts from the first.
Each lane keeps its own damping, iteration count and stop reason
(STOP_REASONS) and leaves the working set when it stops, so a lane of a
stack ends as its own solve would; the two-magnon classification runs its
quantum-number scan as one stack and its bound pairs, one unknown per total
momentum (Bethe's momentum equation), as another.
Chain solves of different L and N (a scan over chain lengths) run as lanes
of few stacks: sorted by N, B lanes of up to n roots share a stack while
B n^2 <= BLOCK.  A lane of fewer than n roots is padded with slots that are
decoupled (F_j = l_j, a unit Jacobian row, left out of every theta_2 sum),
which changes its roots only by rounding (the sums group differently); a
stack of equal N runs unpadded, and a lane alone in its stack exactly as a
single solve.
Iterates that run away to |x| > ROOT_ESCAPE, or converge beyond
ROOT_ESCAPE/100, are reported as unconverged: for the log-form solves these
are solutions with rapidities at infinity (spin-lowered descendants).  The
log forms fold parity offsets into their constants, so their quantum numbers
must be integers.
"""

from dataclasses import dataclass, field

import numpy as np

from .coordinate import XXX, RapiditySet, xxz_kernel

TOL = 1e-12
MAX_ITER = 200
ROOT_ESCAPE = 1e6
EQUALITY_TOL = 1e-8  # root-coincidence threshold for admissibility
BLOCK = 1 << 13      # pairs per row block of a residual; 2^15 took twice as long at N = 160
STOP_REASONS = ("converged", "singular", "stalled", "run_away", "max_iter")
CONVERGED, SINGULAR, STALLED, RUN_AWAY, MAX_ITER_STOP = range(len(STOP_REASONS))


@dataclass
class SolveReport:
    """Outcome of a Bethe-equation solve; converged implies residual < tol.
    stop says why _damped_newton stopped (one of STOP_REASONS)."""
    roots: RapiditySet
    residual: float
    iterations: int
    converged: bool
    qnums: tuple = ()
    params: dict = field(default_factory=dict)
    stop: str = "converged"


def _integer_qnums(qnums):
    """Quantum numbers (a tuple or an array) as a float array; ValueError
    unless every one is an integer."""
    ns = np.asarray(qnums, float)
    if (ns % 1 != 0).any():
        raise ValueError(f"quantum numbers must be integers, got {ns.tolist()}")
    return ns


def _diff(x):
    """Matrices of differences x_j - x_k, (..., N, N) for x of shape (..., N)."""
    return x[..., :, None] - x[..., None, :]


def _jacobian(drive, K):
    """Jacobian of F_j = f(x_j) - sum_{k != j} g(x_j - x_k) from drive = f'(x_j)
    and K = g'(x_j - x_k): K off the diagonal, drive - (row sum of K) on it.
    K, of shape (..., N, N), is overwritten."""
    diag = np.einsum("...ii->...i", K)  # a writeable view
    diag[...] = 0.0
    diag[...] = drive - K.sum(axis=-1)
    return K


def _per_lane(a, lanes):
    """The rows of a per-lane parameter a (B, N) for the lanes x holds; a
    1-D a is shared by every lane."""
    return a if lanes is None or a.ndim < 2 else a.take(lanes, 0)


def _lane_max(f):
    """max_j |f_j| per lane of f (B, n), 0 at n = 0, taken down the columns
    of a transposed copy: numpy reduces a short last axis row by row, 2-3x
    slower over 100 lanes of n = 2.  A maximum is exact, so both orders give
    the same bits."""
    return np.abs(f).T.copy().max(axis=0, initial=0.0)


def _pairwise_min_dist(vals):
    """min over j != k of |v_j - v_k| (inf below two values), over rows in
    blocks of at most BLOCK pairs."""
    v = np.asarray(vals)
    step, best = max(1, BLOCK // max(1, len(v))), np.inf
    for j in range(0, len(v), step):
        d = np.abs(v[j:j + step, None] - v)
        d.ravel()[j::len(v) + 1] = np.inf  # the entries k = j of the block's rows
        best = min(best, d.min())
    return float(best)


def _exp_residuals(lhs, x, log_ratio, t):
    """max_j |lhs_j + prod_k r(x_j - x_k)| per root set x (..., N), with
    log r = log_ratio(Re, Im, t) (see coordinate.ChainKernel): the product is
    taken as the exp of summed logs, which keeps |...|^L in range.  Rows j
    run in blocks of at most BLOCK pairs (one row of every root set at
    least), so no N x N array is built."""
    jr, ji = x.real[..., :, None], x.imag[..., :, None]  # x_j down a column
    kr, ki = x.real[..., None, :], x.imag[..., None, :]  # x_k along a row
    step = max(1, BLOCK // max(1, x.size))
    res = np.zeros(x.shape[:-1])
    for j in range(0, x.shape[-1], step):
        rows = slice(j, j + step)
        rhs = np.exp(log_ratio(jr[..., rows, :] - kr, ji[..., rows, :] - ki, t).sum(axis=-1))
        np.maximum(res, np.abs(lhs[..., rows] + rhs).max(axis=-1), out=res)
    return res


def _chain_residuals(chain, lam, L):
    """Exponential-form residuals of root sets lam (..., N), unguarded."""
    t = chain.eta.imag
    return _exp_residuals(np.exp(L * chain.log_ratio(lam.real, lam.imag, t / 2)),
                          lam, chain.log_ratio, t)


def _chain_residual(chain, roots, L):
    """Max exponential-form residual of one root set; ValueError at a pole or
    at coincident rapidities."""
    lam = chain.off_poles(roots)
    if _pairwise_min_dist(lam) < 1e-12:
        raise ValueError("coincident rapidities")
    return float(_chain_residuals(chain, lam, L))


def bae_residual_xxx(roots, L):
    """Max exponential-form residual of the XXX Bethe equations."""
    return _chain_residual(XXX, roots, L)


def bae_residual_xxz(roots, L, gamma):
    """Max exponential-form residual of the XXZ Bethe equations, Delta = cos(gamma)."""
    return _chain_residual(xxz_kernel(gamma), roots, L)


def bose_residual(roots, L_ring, c):
    """Max exponential-form residual of the delta-Bose-gas equations."""
    k = np.asarray(getattr(roots, "values", roots), complex)
    return float(_exp_residuals(np.exp(1j * k * L_ring), k, XXX.log_ratio, -c))


def _qnum_offset(L, N):
    """c in I_j = n_j - c, the parity offset of the log forms."""
    return (N + 1 + L % 2) / 2


def _stop_floor(L):
    """max(TOL, 8 ulp(pi L)), the closest to 0 that F of a chain of length L
    can be computed; elementwise for an array of lengths."""
    return np.maximum(TOL, 8 * np.spacing(np.pi * L))


def _chain_system(chain, L, ns, counts=None):
    """(F, J) of the chain's log form
    F_j = L theta_1(l_j) - 2 pi I_j - sum_k theta_2(l_j - l_k); ns of shape
    (N,), or (B, n) for one set of quantum numbers per lane.  L is one chain
    length, or one per lane of shape (B, 1).  counts (B, 1), when the lanes'
    root counts differ, gives each lane's N: the slots j >= counts[b] of
    lane b are padding, with F_j = l_j, a unit Jacobian row and no part in
    any theta_2 sum, so they stay at 0 from a zero seed."""
    L, N = np.asarray(L), ns.shape[-1] if counts is None else counts
    phases, offset = 2 * np.pi * ns, 2 * np.pi * _qnum_offset(L, N)
    if counts is not None:
        valid = np.arange(ns.shape[-1]) < counts
        pairs = (valid[:, :, None] & valid[:, None, :]).astype(float)  # a float mask multiplies faster

    def F(lam, lanes=None):
        t2 = chain.theta(2, _diff(lam))
        if counts is not None:
            t2 *= _per_lane(pairs, lanes)
        f = (_per_lane(L, lanes) * chain.theta(1, lam) - _per_lane(phases, lanes)
             + _per_lane(offset, lanes) - t2.sum(axis=-1))
        return f if counts is None else np.where(_per_lane(valid, lanes), f, lam)

    def J(lam, lanes=None):
        drive, K = _per_lane(L, lanes) * chain.dtheta(1, lam), chain.dtheta(2, _diff(lam))
        if counts is not None:
            K *= _per_lane(pairs, lanes)
            drive = np.where(_per_lane(valid, lanes), drive, 1.0)
        return _jacobian(drive, K)
    return F, J


def _damped_newton(F, J, x0, tol=TOL, max_iter=MAX_ITER, f0=None):
    """Newton iteration with step-halving damping, over one system or a stack.

    x0 has shape (n,) for one system or (B, n) for B independent lanes, and
    tol is one tolerance or one per lane (B,); F and J are called as
    F(x, lanes), J(x, lanes) on the rows x of the lanes still running (lanes
    None while all of them are).  Each lane keeps its own step halving,
    iteration count and stop reason, one of STOP_REASONS:
    'converged' (max |F| < tol), 'singular' (the Jacobian solve failed),
    'stalled' (50 halvings did not lower max |F|), 'run_away' (an iterate
    beyond ROOT_ESCAPE, or a converged one beyond ROOT_ESCAPE/100) or
    'max_iter'.  A stopped lane leaves the working set.  f0, when given, is
    F(x0), which the caller has already computed.

    Returns (x, maxres, iters, reason): for x0 of shape (n,) an array, a
    float, an int and a string; for (B, n) arrays of shape (B, n), (B,), (B,)
    and (B,) (reasons as strings).
    """
    x = np.array(x0, float, ndmin=2)
    tol = np.full(len(x), tol)
    out, res_out = np.empty_like(x), np.empty(len(x))
    iters, stop = np.empty(len(x), int), np.empty(len(x), int)
    lanes, sub = np.arange(len(x)), None  # sub: the lanes argument of F and J

    def retire(drop, why, it, *more):
        """Record the lanes drop as stopped (why, it) at x and res; return
        the arrays more without their rows.  lanes and tol keep the rows of
        the lanes still running."""
        nonlocal lanes, sub, tol
        gone, keep = np.flatnonzero(drop), np.flatnonzero(~drop)  # take() beats a mask 5x
        sel = lanes[gone]
        out[sel], res_out[sel], iters[sel], stop[sel] = x.take(gone, 0), res[gone], it, why
        lanes = sub = lanes[keep]
        tol = tol[keep]
        return [a.take(keep, 0) for a in more]

    f = F(x, sub) if f0 is None else np.array(f0, float, ndmin=2)
    res = _lane_max(f)
    for it in range(1, max_iter + 1):
        done = res < tol
        if done.any():
            far = _lane_max(x[done]) > 0.01 * ROOT_ESCAPE
            x, f, res = retire(done, np.where(far, RUN_AWAY, CONVERGED), it - 1, x, f, res)
            if not len(x):
                break
        Jx = J(x, sub)
        try:
            step = np.linalg.solve(Jx, -f[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # some lane is singular: solve one by one to find which
            step, bad = np.zeros_like(x), np.zeros(len(x), bool)
            for r in range(len(x)):
                try:
                    step[r] = np.linalg.solve(Jx[r], -f[r])
                except np.linalg.LinAlgError:
                    bad[r] = True
            x, f, res, step = retire(bad, SINGULAR, it, x, f, res, step)
            if not len(x):
                break
        x_new = x + step
        f_new = F(x_new, sub)
        res_new = _lane_max(f_new)
        ok = res_new < res
        if not ok.all():
            # halve the steps of the lanes whose residual did not drop; all
            # of them have been halved equally often, so t is shared
            p, t = np.flatnonzero(~ok), 1.0
            for _ in range(49):
                t /= 2
                xp = x.take(p, 0) + t * step.take(p, 0)
                fp = F(xp, lanes[p])
                rp = _lane_max(fp)
                ok = rp < res[p]
                o = np.flatnonzero(ok)
                q = p[o]
                x_new[q], f_new[q], res_new[q] = xp.take(o, 0), fp.take(o, 0), rp[o]
                p = p[~ok]
                if not len(p):
                    break
            else:
                stalled = np.zeros(len(x), bool)
                stalled[p] = True
                x_new, f_new, res_new = retire(stalled, STALLED, it, x_new, f_new, res_new)
        x, f, res = x_new, f_new, res_new
        if not np.abs(x).max(initial=0.0) <= ROOT_ESCAPE:  # some entry is beyond it, or nan
            away = _lane_max(x) > ROOT_ESCAPE
            if away.any():
                x, f, res = retire(away, RUN_AWAY, it, x, f, res)
        if not len(x):
            break
    else:
        retire(np.ones(len(x), bool), MAX_ITER_STOP, max_iter)
    if np.ndim(x0) == 1:
        return out[0], float(res_out[0]), int(iters[0]), STOP_REASONS[stop[0]]
    return out, res_out, iters, np.array(STOP_REASONS)[stop]


def _solve_chains(chain, Ls, Ns, qnums):
    """Real-root solves of the chain's log form, one SolveReport per lane
    (L, N, qnums), in input order.  Every lane is checked before any solve.
    The lanes run as the stacks of _lane_stacks, each from the kernel's seed
    or, lane by lane, from the one of its seeds with the smallest max |F_j|
    (the first where some |I_j| > (L - N - 1)/2), and each stops at its own
    floor max(TOL, 8 ulp(pi L)).  A 'singular' stop with a root where
    theta_1' rounds to 0 (XXZ: th l rounds to 1, |l| > about 19) is reported
    as 'run_away': that root's Jacobian row vanished on its way out, before
    it reached ROOT_ESCAPE."""
    nss = [_integer_qnums(q) for q in qnums]
    for L, N, ns in zip(Ls, Ns, nss):
        if len(ns) != N:
            raise ValueError("need one quantum number per root")
        if (ns[1:] <= ns[:-1]).any():
            raise ValueError("quantum numbers must be strictly increasing")
        if N > L / 2:
            raise ValueError("real-root branch requires N <= L/2")
    reports = [None] * len(nss)
    for stack in _lane_stacks([len(ns) for ns in nss]):
        L = np.array([[Ls[i]] for i in stack], float)
        counts = np.array([[len(nss[i])] for i in stack])
        c = np.array([[_qnum_offset(Ls[i], len(nss[i]))] for i in stack])
        ns = np.empty((len(stack), counts[-1, 0]))
        ns[:] = c  # a padding slot: I = 0, where every seed is 0
        for row, i in zip(ns, stack):
            row[:len(nss[i])] = nss[i]
        F, J = _chain_system(chain, L, ns, counts if counts[0, 0] < counts[-1, 0] else None)
        x0 = [seed(ns - c, L) for seed in chain.seeds]
        x, f = x0[0], None
        if len(x0) > 1:
            # one seed at a time: F on a (2, N) stack took 594 us against 220 us
            # for two calls at N = 160 (2-vCPU host), and raised the peak memory
            # of the N = 2048 solve from 186 to 243 MB; the earlier seed wins a
            # tie, and Newton starts from its F.  A lane with some |I_j| past
            # Takahashi's (L - N - 1)/2 keeps the first seed: it has no finite
            # real solution, and from the free magnon its roots run away (5
            # steps at L = 12, N = 5, where Hulthen's seed ran 200 to max_iter)
            f = F(x)
            wild = np.abs(ns - c).max(axis=-1, initial=0.0) > (L - counts - 1)[:, 0] / 2
            for xs in x0[1:]:
                fs = F(xs)
                pick = np.abs(fs).max(axis=-1, initial=0.0) < np.abs(f).max(axis=-1, initial=0.0)
                pick &= ~wild
                x, f = np.where(pick[:, None], xs, x), np.where(pick[:, None], fs, f)
        lam, res, iters, stop = _damped_newton(F, J, x, tol=_stop_floor(L[:, 0]), f0=f)
        for i, x, r, it, why in zip(stack, lam, res.tolist(), iters.tolist(), stop.tolist()):
            x = x[:len(nss[i])]
            if why == "singular" and np.any(chain.dtheta(1, x) == 0):
                why = "run_away"
            params = dict(chain.params)
            roots = RapiditySet(chain.model, Ls[i], np.sort(x).astype(complex), params)
            reports[i] = SolveReport(roots, r, it, why == "converged",
                                     tuple(nss[i].astype(int).tolist()), params, why)
    return reports


def _lane_stacks(counts):
    """Lane indices grouped into stacks: sorted by root count (stable), a
    stack takes the next lane while its B lanes of up to n roots keep
    B n^2 <= BLOCK Jacobian entries, and one lane in any case; a lane of
    more than sqrt(BLOCK / 2) roots always runs alone and unpadded."""
    stacks = []
    for i in sorted(range(len(counts)), key=counts.__getitem__):
        if stacks and (len(stacks[-1]) + 1) * counts[i] ** 2 <= BLOCK:
            stacks[-1].append(i)
        else:
            stacks.append([i])
    return stacks


def _solve_chain(chain, L, N, qnums):
    """Real-root solve of the chain's log form: _solve_chains of one lane."""
    return _solve_chains(chain, [L], [N], [qnums])[0]


def solve_logbae(L, N, qnums):
    """Solve the logarithmic XXX equations for real roots.

    qnums: strictly increasing integers; the lowest state of the N-sector
    has n_j = 1..N.  Returns a SolveReport; run-away iterates (rapidities at
    infinity) are flagged unconverged.
    """
    return _solve_chain(XXX, L, N, qnums)


def solve_logbae_xxz(L, N, gamma, qnums):
    """Real-root XXZ solve in the gapless parameterization Delta = cos(gamma),
    0 < gamma < pi, with the same quantum numbers as solve_logbae."""
    return _solve_chain(xxz_kernel(gamma), L, N, qnums)


def _bose_system(L_ring, c, target):
    """(F, J) of the logarithmic delta-Bose-gas equations; target (N,) or per
    lane (B, N)."""

    def F(k, lanes=None):
        return k * L_ring + np.sum(2 * np.arctan(_diff(k) / c), axis=-1) - _per_lane(target, lanes)

    def J(k, lanes=None):
        return _jacobian(L_ring, -2 * c / (c ** 2 + _diff(k) ** 2))
    return F, J


def solve_bose(L_ring, N, c, qnums):
    """Delta-interacting Bose gas on a ring of length L_ring, coupling c > 0.

    Logarithmic form  k_j L' + sum_l 2 arctg((k_j - k_l)/c) = 2 pi (n_j - (N+1)/2)
    with integer seeds n_j; at c -> infinity the roots become the free-fermion
    momenta 2 pi (n_j - (N+1)/2)/L'.  The report's params carry E = sum k_j^2.
    """
    if c <= 0:
        raise ValueError("repulsive coupling c > 0 required")
    ns = _integer_qnums(qnums)
    if len(ns) != N:
        raise ValueError("need one quantum number per root")
    if N == 0:
        return SolveReport(RapiditySet("BOSE", 0, [], {"c": c, "L_ring": L_ring}),
                           0.0, 0, True, (), {"c": c, "energy": 0.0})
    target = 2 * np.pi * (ns - (N + 1) / 2)
    k, res, iters, stop = _damped_newton(*_bose_system(L_ring, c, target), target / L_ring)
    roots = RapiditySet("BOSE", 0, np.sort(k).astype(complex), {"c": c, "L_ring": L_ring})
    energy = float(np.sum(k ** 2))
    return SolveReport(roots, res, iters, stop == "converged", tuple(int(n) for n in ns),
                       {"c": c, "L_ring": L_ring, "energy": energy}, stop)


def _inadmissible(lam, tol):
    """Admissibility failures of root sets lam (..., n): a root at +-i/2
    (..., n), and coincident roots j < k and differences l_j - l_k = i
    (..., n, n each)."""
    d = _diff(lam)
    off = ~np.eye(lam.shape[-1], dtype=bool)
    pole = (np.abs(lam - 0.5j) < tol) | (np.abs(lam + 0.5j) < tol)
    return pole, (np.abs(d) < tol) & np.triu(off), (np.abs(d - 1j) < tol) & off


def admissibility(roots, tol=EQUALITY_TOL):
    """Admissibility of an XXX root set: pairwise distinct, no difference i,
    no root at +-i/2.  Returns (flag, list of reasons)."""
    lam = np.asarray(getattr(roots, "values", roots), complex)
    pole, coincident, diff_i = _inadmissible(lam, tol)
    reasons = [f"root at +-i/2 (index {j})" for j in np.flatnonzero(pole)]
    for j, k in zip(*np.nonzero(coincident | diff_i)):
        if coincident[j, k]:
            reasons.append(f"coincident roots ({j},{k})")
        if diff_i[j, k]:
            reasons.append(f"difference i ({j},{k})")
    return len(reasons) == 0, reasons


def _momentum_system(L, c, s):
    """(F, J) of Bethe's momentum equation of a bound pair k = h +- iv, in v:
    F(v) = c - e^{-v}(1 - s e^{-(L-2)v})/(1 - s e^{-Lv}), with c = cos h and
    s = +1 (odd m) or -1 (even m), h = pi m/L, per lane (B, 1).  F rises from
    c - 1 (even m) or c - (L - 2)/L (odd m) at v = 0 to c as v grows."""

    def g(v, lanes):
        """s, e^{-v}, e^{-Lv}, 1 - s e^{-Lv} and c - F."""
        sl, a, e = _per_lane(s, lanes), np.exp(-v), np.exp(-L * v)
        return sl, a, e, 1 - sl * e, a * (1 - sl * np.exp(-(L - 2) * v)) / (1 - sl * e)

    def F(v, lanes=None):
        return _per_lane(c, lanes) - g(v, lanes)[-1]

    def J(v, lanes=None):
        sl, a, e, D, gv = g(v, lanes)
        return (gv - sl * e / a * (L - 2 - L * a * a + 2 * sl * e) / D ** 2)[..., None]
    return F, J


def _bound_pairs(L):
    """Every bound pair of the two-magnon sector of an even L, unscreened:
    rows [x + i d, x - i d] ascending in x.  k = h +- iv, h = pi m/L and
    0 < m < L/2, turn the Bethe equations into c ch(Lv/2) = ch((L/2 - 1)v)
    (even m) or c sh(Lv/2) = sh((L/2 - 1)v) (odd m), c = cos h, with one root
    v > 0 each (_momentum_system), none at odd m with c L >= L - 2; -h gives
    -x.  l = cot(k/2)/2 gives x = sin h/(2 den), den = ch v - c (a sum of
    squares), and d = 1/2 + (c - e^{-v})/(2 den), a product by the equation:
    d is correctly rounded where |2d - 1| < 1e-2, as the exp-form gate needs."""
    m = np.arange(1, L // 2)
    m = m[(m % 2 == 0) | (L * np.cos(np.pi * m / L) < L - 2)]  # the m with a root
    h = np.pi * m / L
    c, s = np.cos(h), np.where(m % 2, 1.0, -1.0)
    v = _damped_newton(*_momentum_system(L, c[:, None], s[:, None]),
                       np.maximum(-np.log(c), 0.01)[:, None], tol=1e-15)[0][:, 0]
    den = 2 * np.sinh(v / 2) ** 2 + 2 * np.sin(h / 2) ** 2
    delta = s * np.exp(-(L - 1) * v) * np.expm1(-2 * v) / (2 * (1 - s * np.exp(-L * v)) * den)
    x = 0.5 * np.sin(h) / den
    l = np.sort_complex(np.concatenate([-x, x]) + 1j * (0.5 + np.concatenate([delta, delta])))
    return np.stack([l, l.conj()], axis=-1)


def classify_two_magnon(L):
    """Enumerate admissible N = 2 solutions: real pairs from a quantum-number
    scan and conjugate ("bound") pairs l = x +- i d, one per total momentum,
    from Bethe's momentum equation (_bound_pairs).

    Real seeds: all strictly increasing integer pairs with |I_j| <= (L - 3)/2,
    Takahashi's bound (L - N - 1)/2 on real roots, i.e. n_j in 3 - L/2 .. L/2,
    solved as one stack of log-form systems from the free-magnon seed.  At
    every even L in 4..16 exactly these lanes of the wider scan
    -L/2 + 1 .. L/2 + 3 converge and all others run away
    (tests/test_bae.py::test_two_magnon_scan_is_the_admissible_range).
    Bound pairs: one lane per momentum of one _damped_newton stack (tolerance
    1e-15, seed max(-ln c, 0.01)), so no two are the same pair.
    Real pairs are admissible and at least 1e-3 apart (same test), so only
    bound pairs are screened: each must be admissible, which also keeps the
    residual off the poles.  Every candidate then needs an exp-form residual
    of at most 1e-10.  The exactly singular pair {+i/2, -i/2} (a genuine
    two-magnon level at momentum pi for even L) is inadmissible and
    intentionally not returned.

    Returns a list of (RapiditySet, kind) with kind 'real-pair' | 'bound-pair',
    real pairs first, bound pairs ascending in Re l.
    """
    if L % 2 or not (4 <= L <= 16):
        raise ValueError(f"L={L}: the two-magnon scan takes even L, 4 <= L <= 16")
    qn_range = range(3 - L // 2, L // 2 + 1)
    ns = np.array([(n1, n2) for n1 in qn_range for n2 in qn_range if n2 > n1], float)
    lam, _, _, stop = _damped_newton(*_chain_system(XXX, L, ns),
                                     XXX.seeds[0](ns - _qnum_offset(L, 2), L))
    real = np.sort(lam[stop == "converged"], axis=-1).astype(complex)

    bound = _bound_pairs(L)
    pole, coincident, diff_i = _inadmissible(bound, EQUALITY_TOL)
    bound = bound[~(pole.any(axis=-1) | coincident.any(axis=(-2, -1)) | diff_i.any(axis=(-2, -1)))]

    cand = np.concatenate([real, bound])
    ok = ~(_chain_residuals(XXX, cand, L) > 1e-10)
    return [(RapiditySet("XXX", L, cand[i].copy()), "real-pair" if i < len(real) else "bound-pair")
            for i in np.flatnonzero(ok)]


def two_magnon_reference_count(L):
    """Highest-weight level count of the N = 2 sector, binom(L,2) - binom(L,1).
    Admissible solutions cover all of them except the singular momentum-pi
    bound state (energy -J), which has rapidities exactly at +-i/2."""
    from math import comb
    return comb(L, 2) - comb(L, 1)
