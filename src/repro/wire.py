"""The wire model: how many bytes each message occupies in a UDP datagram.

Every byte either engine counts comes from here: each object-engine
``Message.payload_size`` and the columnar engine's tx/rx accounting
(:mod:`repro.columnar.shuffle`). A size function returns payload bytes, to which
every datagram adds :data:`HEADER`, and is plain arithmetic, so it takes Python
ints and numpy integer arrays alike. The layout is what a UDP packet carries:

* an endpoint is an IPv4 address and a port;
* an address is a node id, an endpoint and a NAT-type byte;
* a descriptor is an address and an age byte, plus an address per relay parent;
* a ratio estimate is the paper's 5 bytes (Section VII): a 2-byte node id, a
  byte each for the public and private counts and a timestamp byte.
"""

#: IPv4 header (20 bytes) + UDP header (8 bytes), on every datagram.
HEADER = 20 + 8
ENDPOINT = 4 + 2
ADDRESS = 4 + ENDPOINT + 1
DESCRIPTOR = ADDRESS + 1
ESTIMATE = 5
#: What a relay envelope wraps around the inner payload on each hop: target and
#: initiator addresses and a TTL byte.
ENVELOPE = 2 * ADDRESS + 1
#: The request id of a NAT-type identification message.
REQUEST_ID = 4


def shuffle(descriptors, parents=0, estimates=0):
    """A shuffle request or response with ``descriptors`` descriptors carrying
    ``parents`` relay-parent addresses in all, and ``estimates`` ratio
    estimates; each count includes the sender's own."""
    return DESCRIPTOR * descriptors + ADDRESS * parents + ESTIMATE * estimates


def relay(payload):
    """A message wrapped in a relay envelope, on each of its hops."""
    return ENVELOPE + payload


def keepalive():
    """A NAT keep-alive or its ack: the sender's address."""
    return ADDRESS


def registration():
    """A relay registration or its ack: the sender's address and a flag byte."""
    return ADDRESS + 1


def punch_request():
    """A hole-punch request: initiator and target addresses, hop count and limit."""
    return 2 * ADDRESS + 2


def punch_ping():
    """The packet that opens a node's NAT towards a peer: the node's address."""
    return ADDRESS


def nat_test(endpoints, addresses):
    """A NAT-type identification message: request id, endpoints and addresses."""
    return REQUEST_ID + ENDPOINT * endpoints + ADDRESS * addresses
