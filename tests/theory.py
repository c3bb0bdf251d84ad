"""Closed-form expectations that the simulations are checked against.

A prediction here uses only the wire model (``repro.wire``), the shuffle size
and the bound on piggy-backed estimates, and nothing else from the code under
test, so it is a third opinion on both engines rather than a restatement of
either.

The load law (Figure 7(a)): every node opens one exchange per period T, and
under Croupier every exchange lands on one of the ωN public nodes. A private
node therefore moves one request and one response, (S_req + S_resp) / T bytes
per second, and a public node, which also answers 1/ω requests per period,
(1 + 1/ω) times that. Cyclon is the public-only case, ω = 1.

The law assumes full views and an estimate cache holding at least
``max_estimates`` fresh entries, which holds once a cell has warmed up. It
leaves out that a public node's own request also carries its own estimate,
which puts the public load 0.4 % above the law at the paper's defaults.
"""

from repro import wire


def croupier_messages(shuffle_size: int, max_estimates: int):
    """(S_req, S_resp) in bytes of a private node's request and a public
    node's response: ``shuffle_size`` descriptors from each view (the sender's
    own among them) plus the sender's, and ``max_estimates`` cached estimates
    plus, from a public sender, its own."""
    descriptors = 2 * shuffle_size + 1
    return (wire.HEADER + wire.shuffle(descriptors, 0, max_estimates),
            wire.HEADER + wire.shuffle(descriptors, 0, max_estimates + 1))


def cyclon_messages(shuffle_size: int):
    """(S_req, S_resp) of Cyclon: ``shuffle_size`` descriptors (a request's
    include the sender's) plus the sender's."""
    size = wire.HEADER + wire.shuffle(shuffle_size + 1)
    return size, size


def shuffle_load(messages, omega: float, period_s: float):
    """(private, public) load in bytes per second per node."""
    private = sum(messages) / period_s
    return private, (1 + 1 / omega) * private
