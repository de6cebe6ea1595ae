"""Velocity gains at which the minimum headway is an exact threshold.

``control.min_headway`` takes no k_v or k_p: it is the smallest headway any
(k_v, k_p) can make string stable.  At mu = 0, write
|D(jw)|^2 - |N(jw)|^2 = w^2 (c0 + c1 w^2 + tau^2 w^4) with
c0 = k_p (k_p h^2 + 2 k_v h - 2 (1 - gamma k_a)) and
c1 = 1 - 2 tau (k_v + k_p h) - (gamma k_a)^2.  At the gain below,
c1 = -2 tau k_p h, and c1^2 <= 4 tau^2 c0 reduces to the closed form, for every
k_p > 0; for mu > 0 the substitution in ``min_headway``'s docstring carries
this over.  Shared by the control and stability tests and the acceptance gate.
"""


def designed_kv(gamma: float, mu: float, k_a: float, tau: float) -> float:
    """k_v = (1 - A1^2) / (2 tau (1 + mu)) with A1 = (1 + mu) gamma k_a.

    At this k_v the peak of |H_p1(jw)| touches its DC gain 1 / (1 + mu)
    exactly at h = min_headway(tau, gamma, mu, k_a).  mu = 0 gives CACC's
    (1 - (gamma k_a)^2) / (2 tau) and mu = gamma CACC+'s, bit for bit.
    """
    return (1.0 - ((1.0 + mu) * gamma * k_a) ** 2) / (2.0 * tau * (1.0 + mu))
