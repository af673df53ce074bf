"""Workload sizes and the fixed expectations shared by run.py and worker.py.

Stdlib only: run.py imports it without knotcert on the path.
"""

SIZES = {
    # "full" is what the benchmark measures, "tiny" is for the self-test.
    "full-suite": {"full": ("full", 1530), "tiny": ("desk", 174)},  # level, claims
    "beta5-p0": {"full": 5, "tiny": 3},  # n of verify topterm
    "random-links": {"full": 1500, "tiny": 20},  # words per sample
    "certificates": {  # train-track n, Dehornoy floor n, k_max of the sweeps
        "full": (range(3, 17), range(2, 13), 1000),
        "tiny": (range(3, 6), range(2, 5), 20),
    },
}

# Handle-reduction steps of the Dehornoy floor certificate, n = 2..5.
KNOWN_HANDLE_STEPS = {2: 55, 3: 197, 4: 479, 5: 949}

# Claim-id prefixes of `knotcert verify all`, one per suite.
SUITES = ("topterm", "decomposition", "sharpness", "ito", "genus",
          "lspace", "slopes", "traintrack", "dehornoy")


def expected_items(workload: str, size: str) -> int:
    """Items one sample attempts; a crashed sample fails all of them."""
    spec = SIZES[workload][size]
    if workload == "full-suite":
        return spec[1]
    if workload == "beta5-p0":
        return 1
    if workload == "random-links":
        return spec
    tt_ns, floor_ns, k_max = spec
    return len(tt_ns) + len(floor_ns) + 3 * k_max + 2
