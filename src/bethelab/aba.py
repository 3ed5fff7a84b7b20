"""Algebraic Bethe Ansatz for the six-vertex monodromy matrix.

The monodromy is written as a 2x2 matrix in the auxiliary space,

    T_0(l) = [[ A(l), B(l) ],
              [ C(l), D(l) ]]_0 ,

with A + D the transfer matrix.  B lowers S^z by one; products of B's applied
to the all-up pseudo vacuum generate (XXZ) off-shell Bethe vectors.  With
Q(l|{n}) = prod_n sh(l - n), the vacuum eigenvalues are Q-functions of the
inhomogeneities, a(l) = Q(l + eta|{xi}) and d(l) = Q(l|{xi}) (the R-matrix at
rho = 1).  The homogeneous convention here is xi_j = eta/2, so a(l) =
sh^L(l + eta/2), d(l) = sh^L(l - eta/2) and this module's transfer t(l) equals
the six-vertex homogeneous transfer at l - eta/2.  A root set {m} is on shell when

    a(m_j) Q(m_j - eta|{m}) + d(m_j) Q(m_j + eta|{m}) = 0   for every j,

and then t(l) has eigenvalue

    Lambda(l|{m}) = [a(l) Q(l - eta|{m}) + d(l) Q(l + eta|{m})] / Q(l|{m}).

The pairing (scalar product) of an on-shell vector with an off-shell one has a
determinant representation; see slavnov_ratio for the kernel actually used,
which was validated against the explicit pairing of B/C product vectors.

Q-functions, vacuum functions, transfer eigenvalues, residuals, action
coefficients and determinant matrices are evaluated on arrays of spectral
parameters (roots on the last axis), each formula in one place; the only loop
over roots is the B/C products, which apply the monodromy's two-site blocks
(built for every root position at once) one root position after the other
to a whole stack of root sets (one row each): the action residuals and the
explicit pairing build their products in one sweep.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .bae import _pairwise_min_dist, solve_logbae_xxz
from .sixvertex import (VertexWeights, _apply_blocks, _check_length, _monodromy_csr,
                        _pair_blocks, _transfer_action, transfer)

sh = np.sinh
ch = np.cosh
MIN_PAIR_DISTANCE = 1e-6  # closest two parameters the action and pairing formulas accept
ONSHELL_TOL = 1e-10  # largest Q-form BAE residual slavnov_ratio accepts as on shell
PRODUCT_L_MAX = 12  # B/C products: one 2^(L+1) row per root set and root position


def cth(x):
    return ch(x) / sh(x)


def _shifts(lam, roots):
    """l - n with the spectral parameters l on the leading axes and the roots
    n on the last; leading axes of the roots broadcast against l."""
    return np.asarray(lam, complex)[..., None] - np.asarray(roots, complex)


def q_function(lam, roots):
    """Q(l|{n}) = prod_n sh(l - n) for a scalar or an array of l; empty
    product = 1."""
    return np.prod(sh(_shifts(lam, roots)), axis=-1)


def _q_log_derivative(lam, roots):
    """d/dl log Q(l|{roots}) away from the zeros, for a scalar or an array of l."""
    return np.sum(cth(_shifts(lam, roots)), axis=-1)


def _all_but_one(s):
    """prod_{k != m} s_k for every m (on the last axis), the product of the
    exclusive prefix and suffix products: exact where s_m = 0, and O(n)
    memory per row."""
    out = np.ones_like(s)
    s[..., :-1].cumprod(axis=-1, out=out[..., 1:])
    out[..., :-1] *= s[..., :0:-1].cumprod(axis=-1)[..., ::-1]
    return out


def _q_derivative(lam, roots):
    """Q'(l|{roots}) = sum_m ch(l - n_m) prod_{k != m} sh(l - n_k), exact at a
    root (where it is the product of the other factors); for a scalar or an
    array of l."""
    x = _shifts(lam, roots)
    return (ch(x) * _all_but_one(sh(x))).sum(axis=-1)


class VacuumFunctions:
    """Vacuum eigenvalues of the monodromy diagonal blocks as Q-functions of
    the inhomogeneities xi (eta/2 at every site unless given):
    a(l) = Q(l + eta|{xi}), d(l) = Q(l|{xi}); every method takes a scalar or
    an array of l."""

    def __init__(self, L, eta, xi=None):
        self.L = L
        self.eta = eta
        self.xi = np.full(L, eta / 2, complex) if xi is None else np.asarray(xi, complex)

    def a(self, l):
        return q_function(l + self.eta, self.xi)

    def d(self, l):
        return q_function(l, self.xi)

    def dlog_a(self, l):
        return _q_log_derivative(l + self.eta, self.xi)

    def dlog_d(self, l):
        return _q_log_derivative(l, self.xi)

    def da(self, l):
        """a'(l), zero-safe at the zeros of a."""
        return _q_derivative(l + self.eta, self.xi)

    def dd(self, l):
        """d'(l), zero-safe at the zeros of d."""
        return _q_derivative(l, self.xi)


class MonodromyBlocks(NamedTuple):
    """A/B/C/D blocks of the monodromy at one spectral parameter, each a
    2^L x 2^L CSR matrix."""
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    D: sp.csr_matrix


def _weights_homogeneous(L, eta):
    """The eta/2-convention weights, after the explicit L bound is checked."""
    _check_length(L)
    return VertexWeights.from_parameters(1.0, 0.0, eta, xi=[eta / 2] * L)


def _product_weights(L, eta):
    """_weights_homogeneous for the B/C products, after their L bound is
    checked: past it nothing of size L is built."""
    if L > PRODUCT_L_MAX:
        raise ValueError(f"B/C products supported up to L = {PRODUCT_L_MAX}")
    return _weights_homogeneous(L, eta)


def monodromy_blocks(lam, L, eta, xi=None):
    """Extract A(l), B(l), C(l), D(l) from the 2x2 auxiliary structure of the
    monodromy, sliced from its CSR (no 2^(L+1) dense matrix; L is bounded by
    sixvertex.EXPLICIT_L_MAX); xi defaults to the homogeneous eta/2
    convention."""
    w = (_weights_homogeneous(L, eta) if xi is None
         else VertexWeights.from_parameters(1.0, 0.0, eta, xi=list(xi)))
    T = _monodromy_csr(lam, L, w)
    d = 2 ** L
    return MonodromyBlocks(T[:d, :d], T[:d, d:], T[d:, :d], T[d:, d:])


def pseudo_vacuum(L):
    v = np.zeros(2 ** L, complex)
    v[0] = 1.0
    return v


def aba_transfer(lam, L, eta):
    """A(l) + D(l) in the homogeneous eta/2 convention (equals the six-vertex
    transfer at l - eta/2), as an explicit matrix; the action residuals apply
    it to vectors through sixvertex._transfer_action instead."""
    return transfer(lam, L, _weights_homogeneous(L, eta)).matrix


def _off_diagonal_product(roots, L, w, transposed):
    """prod_j B(l_j)|0>, or prod_j C(l_j)^T |0> with the transposed monodromy,
    for the weights w and roots of shape (N,), or (K, N) for K root sets at
    once (one product per row): for each root position, one 2^(L+1) row per
    set enters with aux = 1, goes through the R-factors two sites at a time
    by reshape, and keeps its aux = 0 half.  The callers bound L through
    _product_weights."""
    roots = np.atleast_1d(np.asarray(roots, complex))
    d = 2 ** L
    v = np.zeros(roots.shape[:-1] + (d,), complex)
    v[..., 0] = 1.0
    blocks = _pair_blocks(np.moveaxis(roots, -1, 0), L, w)  # of all positions at once
    for n in range(roots.shape[-1]):
        x = np.concatenate([np.zeros_like(v), v], axis=-1)
        v = _apply_blocks([(j, P[n]) for j, P in blocks], x, transposed)[..., :d]
    return v


def b_product_state(roots, L, eta):
    """prod_j B(l_j) applied to the pseudo vacuum (order immaterial: the B's
    commute), applying the R-factors to one vector per root without building
    any matrix."""
    return _off_diagonal_product(roots, L, _product_weights(L, eta), False)


def bae_q_residual(roots, vac):
    """Max relative residual of a(m_j) Q(m_j - eta) + d(m_j) Q(m_j + eta) = 0
    over the set (the on-shell condition in Q-form)."""
    roots = np.asarray(roots, complex)
    t1 = vac.a(roots) * q_function(roots - vac.eta, roots)
    t2 = vac.d(roots) * q_function(roots + vac.eta, roots)
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), 1e-300)
    return float(np.max(np.abs(t1 + t2) / scale, initial=0.0))


def _numerator(lam, roots, vac):
    """n = a(l) Q(l - eta|{roots}) + d(l) Q(l + eta|{roots}), the numerator of
    Lambda = n/Q, at a scalar or an array of l."""
    lam = np.asarray(lam, complex)
    return vac.a(lam) * q_function(lam - vac.eta, roots) \
        + vac.d(lam) * q_function(lam + vac.eta, roots)


def _transfer_numerator(lam, roots, vac):
    """(n, n', Q, Q') at a scalar or an array of l: the numerator n of
    Lambda = n/Q and the derivatives in the zero-safe product-rule form."""
    lam = np.asarray(lam, complex)
    qm, qp = q_function(lam - vac.eta, roots), q_function(lam + vac.eta, roots)
    dn = (vac.da(lam) * qm + vac.a(lam) * _q_derivative(lam - vac.eta, roots)
          + vac.dd(lam) * qp + vac.d(lam) * _q_derivative(lam + vac.eta, roots))
    return _numerator(lam, roots, vac), dn, q_function(lam, roots), _q_derivative(lam, roots)


def transfer_eigenvalue(lam, roots, vac):
    """Lambda(l|{roots}) of the transfer matrix on the Bethe state, for a
    scalar or an array of l.

    The apparent pole at l = root is removable on shell; within 1e-8 of a root
    the value is computed by the derivative (l'Hopital) form n'/Q'."""
    n, dn, q, dq = _transfer_numerator(lam, roots, vac)
    near = np.min(np.abs(_shifts(lam, roots)), axis=-1, initial=np.inf) <= 1e-8
    return (np.where(near, dn, n) / np.where(near, dq, q))[()]


def transfer_eigenvalue_derivative(lam, roots, vac):
    """Analytic d Lambda/dl = (n' - Lambda Q')/Q away from the roots, for a
    scalar or an array of l."""
    n, dn, q, dq = _transfer_numerator(lam, roots, vac)
    return ((dn - n / q * dq) / q)[()]


def xxz_energy_from_eigenvalue(roots, vac):
    """XXZ energy from the logarithmic derivative of the transfer eigenvalue
    at l = eta/2: E = sh(eta)/2 * Lambda'/Lambda - ch(eta) L / 2."""
    l0 = vac.eta / 2
    lam_val = transfer_eigenvalue(l0, roots, vac)
    lam_der = transfer_eigenvalue_derivative(l0, roots, vac)
    return complex(sh(vac.eta) / 2 * lam_der / lam_val - ch(vac.eta) * vac.L / 2)


def _action_terms(params, L, eta):
    """(keep, coeffs): row j of keep is the parameters without the j-th, and
    coeffs[ell, j] the coefficient of B(keep[j]) in t(l_ell) B(keep[ell])."""
    params = np.asarray(params, complex)
    n1 = len(params)
    if _pairwise_min_dist(params) < MIN_PAIR_DISTANCE:
        raise ValueError("parameters closer than the pole guard")
    keep = np.broadcast_to(params, (n1, n1))[~np.eye(n1, dtype=bool)].reshape(n1, n1 - 1)
    numer = _numerator(params, keep[:, None], VacuumFunctions(L, eta))
    return keep, numer / q_function(params, keep)


def _action_residual(params, ell, L, eta, transposed):
    """Relative residual of the action of t(l_ell) on the B-product (or, with
    transposed, of t^T on the C-product covector) over the N+1 parameters;
    the N+1 products are built as one stack."""
    if abs(sh(eta)) < 1e-12:
        raise ValueError("sh(eta) = 0 makes every B/C product vanish")
    w = _product_weights(L, eta)
    keep, coeffs = _action_terms(params, L, eta)
    vecs = _off_diagonal_product(keep, L, w, transposed)
    lhs = _transfer_action(complex(params[ell]), L, w, vecs[ell], transposed)
    rhs = coeffs[ell] @ vecs
    return float(np.linalg.norm(lhs - rhs)
                 / max(np.linalg.norm(lhs), np.linalg.norm(rhs)))


def offshell_action_residual(params, ell, L, eta):
    """Relative residual of the off-shell transfer action identity

        t(l_ell) B({l}_ell) = sum_j [a(l_j) Q(l_j - eta|{l}_ell)
                                     + d(l_j) Q(l_j + eta|{l}_ell)]
                              / Q(l_j|{l}_j) * B({l}_j)

    evaluated with explicit vectors on the 2^L space, t applied to the vector
    two sites at a time (no transfer matrix is built); {l}_j omits the j-th of
    the N+1 parameters."""
    return _action_residual(params, ell, L, eta, False)


def dual_action_residual(params, ell, L, eta):
    """Dual version of offshell_action_residual with C-products acting from
    the left; the covector times t is applied as t^T to it, again without a
    transfer matrix."""
    return _action_residual(params, ell, L, eta, True)


def k_function(lam, eta):
    return cth(lam - eta) - cth(lam + eta)


def a_ratio(lam, roots, vac):
    """Exponential counting function  afun(l|{m}) = d(l) Q(l + eta|{m}) /
    (a(l) Q(l - eta|{m})) for a scalar or an array of l; equals -1 at on-shell
    roots."""
    return (vac.d(lam) * q_function(lam + vac.eta, roots)
            / (vac.a(lam) * q_function(lam - vac.eta, roots)))


def a_ratio_derivative(lam, roots, vac):
    """d afun/dl from the product form (logarithmic derivative), for a scalar
    or an array of l."""
    dlog = vac.dlog_d(lam) - vac.dlog_a(lam) \
        + _q_log_derivative(lam + vac.eta, roots) \
        - _q_log_derivative(lam - vac.eta, roots)
    return a_ratio(lam, roots, vac) * dlog


def slavnov_ratio(mu_onshell, lam_offshell, L, eta):
    """Normalized determinant formula for the Bethe-vector pairing

        <0| prod C(m_j) prod B(l_k) |0>  /  <0| prod C(m_j) prod B(m_k) |0>

    with {m} on shell and {l} arbitrary.  Evaluated as

        [prod_j Lambda(l_j|{m}) / Lambda(m_j|{m})]
        * det N / ( det[d_jk - K(m_j - m_k)/afun'(m_k)] * det[1/sh(m_j - l_k)] ),

        N_jk = e(m_j - l_k)/(1 + afun(l_k)) - e(l_k - m_j)/(1 + 1/afun(l_k)).

    The second kernel term carries the reflected argument e(l_k - m_j); the
    variant with e(m_j - l_k) in both terms disagrees with the explicit
    pairing already at N = 1 (see the regression test), so the reflected form
    is the one exposed.  The two terms are formed with the pole of e at
    l_k = m_j + eta (resp. m_j - eta) cancelled against the zero of
    a(l_k) Q(l_k - eta|{m}) (resp. d(l_k) Q(l_k + eta|{m})), so the ratio is
    finite there.  Determinant ratios go through slogdet to keep the
    magnitudes in range.
    """
    mu = np.asarray(mu_onshell, complex)
    la = np.asarray(lam_offshell, complex)
    n = len(mu)
    if len(la) != n:
        raise ValueError("need as many off-shell as on-shell parameters")
    if _pairwise_min_dist(np.concatenate([mu, la])) < MIN_PAIR_DISTANCE:
        raise ValueError("parameters closer than the pole guard")
    vac = VacuumFunctions(L, eta)
    if bae_q_residual(mu, vac) > ONSHELL_TOL:
        raise ValueError("the mu set is not on shell")
    lam = transfer_eigenvalue(np.concatenate([la, mu]), mu, vac)
    log_pref = np.sum(np.log(lam[:n]) - np.log(lam[n:]))
    den_cauchy = 1 / sh(mu[:, None] - la[None, :])
    # e(m_j - l_k) wa_k and e(l_k - m_j) wd_k, wa = a(l) Q(l - eta|{m}) and
    # wd = d(l) Q(l + eta|{m}), with the factor of Q(l_k -+ eta) that cancels
    # the pole of e at l_k = m_j +- eta divided out:
    # e(x) sh(x + eta) = sh(eta) / sh(x) for x = m_j - l_k and x = l_k - m_j
    ewa = -sh(eta) * den_cauchy * vac.a(la) * _all_but_one(sh(_shifts(la - eta, mu))).T
    ewd = -sh(eta) * den_cauchy * vac.d(la) * _all_but_one(sh(_shifts(la + eta, mu))).T
    # over wa + wd: 1/(1 + afun) and 1/(1 + 1/afun), finite where a(l_k) or d(l_k) is 0
    num = (ewa - ewd) / _numerator(la, mu, vac)
    den_gaudin = np.eye(n) - k_function(mu[:, None] - mu[None, :], eta) \
        / a_ratio_derivative(mu, mu, vac)
    s1, l1 = np.linalg.slogdet(num)
    s2, l2 = np.linalg.slogdet(den_gaudin)
    s3, l3 = np.linalg.slogdet(den_cauchy)
    return complex(s1 / (s2 * s3) * np.exp(l1 - l2 - l3 + log_pref))


def pairing_ratio_bruteforce(mu, la, L, eta):
    """The same ratio from explicit B/C product vectors on the 2^L space (the
    oracle): no determinant and no Bethe equations enter, only the R-matrix
    factors of the monodromy.  The B-products of {l} and {m} are one stack."""
    w = _product_weights(L, eta)
    cvec = _off_diagonal_product(mu, L, w, True)
    b_la, b_mu = _off_diagonal_product(np.stack([la, mu]), L, w, False) @ cvec
    return complex(b_la / b_mu)


def onshell_roots(L, N, gamma):
    """On-shell rapidities of the lowest state (quantum numbers 1..N) for the
    homogeneous chain at eta = i*gamma (the real-root regime): the gapless XXZ
    logarithmic equations deliver them, and they satisfy the Q-form on-shell
    condition of this module as-is.  Raises ValueError above the equator
    (2N > L), where the solver can report run-away roots as converged, and
    RuntimeError when the solve does not converge."""
    if 2 * N > L:
        raise ValueError(f"N={N} above the equator of L={L}: on-shell roots need 2N <= L")
    qnums = tuple(range(1, N + 1))
    rep = solve_logbae_xxz(L, N, gamma, qnums)
    if not rep.converged:
        raise RuntimeError(f"on-shell solve failed for L={L} N={N} qnums={qnums}")
    return rep.roots.values
