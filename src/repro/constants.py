"""Well-known port numbers and protocol-wide default parameters.

Keeping these in one module means experiments, tests and examples never disagree about
which port a protocol listens on.
"""

#: Port of the NAT-type identification *server* side (runs on public nodes).
NATID_SERVER_PORT = 3000

#: Port of the NAT-type identification *client* side (runs on the node under test).
NATID_CLIENT_PORT = 3001

#: Port used by every peer-sampling protocol (Croupier, Cyclon, Nylon, Gozar).
PSS_PORT = 7000

#: The paper's gossip round period, in milliseconds (Section VII-A).
DEFAULT_ROUND_MS = 1000.0

#: The paper's partial view size (Section VII-A).
DEFAULT_VIEW_SIZE = 10

#: The paper's shuffle (view-exchange subset) size (Section VII-A).
DEFAULT_SHUFFLE_SIZE = 5

#: Default public/private ratio used by most experiments (Section VII-A).
DEFAULT_PUBLIC_RATIO = 0.2
