"""Benchmark workloads: `full` pipeline configs generated from a seed.

Each workload maps a seed to the list of configs its closed loop cycles
through.  The program under test sees only these configs.
"""

import random

# The acceptance-test model (tests/test_acceptance.py) and its time grid.
PAPER_MODEL = {"N": 5, "g": -1.05, "h": 0.5, "alpha": 0.01, "gamma": 0.01}
T_MAX = 10.0
N_SAMPLES = 400
CONTINUUM = {"case": "constant_a", "alpha": 3.0, "beta": 2.0}

SWEEP_RATE_RANGE = (0.005, 0.2)   # alpha and gamma of the open sweep models
N6_PREFIX = 150


def full_config(model, **extra):
    cfg = {"model": dict(model), "t_max": T_MAX, "n_samples": N_SAMPLES,
           "continuum": dict(CONTINUUM)}
    cfg.update(extra)
    return cfg


def n5_full(seed):
    del seed  # one fixed model: the headline N = 5 cost
    return [full_config(PAPER_MODEL)]


def n6_prefix(seed):
    del seed  # one fixed model: dense N = 6 assembly, short chain
    return [full_config(dict(PAPER_MODEL, N=6),
                        bilanczos={"max_iter": N6_PREFIX})]


# The sweep's models: (N, g, h, alpha, gamma).  Two closed and two open
# models per chain length; the open rates sit at both ends and at two
# interior log-spaced points of SWEEP_RATE_RANGE, each used once for alpha
# and once for gamma.
SWEEP_MODELS = (
    (3, -1.05, 0.5, 0.0, 0.0),
    (3, -1.25, 0.35, 0.0, 0.0),
    (3, -1.05, 0.5, 0.005, 0.0585),
    (3, -0.9, 0.6, 0.0585, 0.005),
    (4, -1.05, 0.5, 0.0, 0.0),
    (4, -0.9, 0.6, 0.0, 0.0),
    (4, -1.05, 0.5, 0.0171, 0.2),
    (4, -1.25, 0.35, 0.2, 0.0171),
)


def sweep_small(seed):
    """Eight configs at N = 3 and 4, half closed and half open.

    The seed sets the order in which the client sends them.  The models
    themselves are fixed: moving a parameter by a few percent can change
    the RK4 refinement count of a run, and with it the run's cost, by 2x;
    drawing the models from the seed spread the per-seed pass time by
    10-20 %, on top of the machine's own run-to-run noise.
    """
    configs = [full_config({"N": N, "g": g, "h": h, "alpha": alpha,
                            "gamma": gamma})
               for N, g, h, alpha, gamma in SWEEP_MODELS]
    random.Random(seed).shuffle(configs)
    return configs


def tiny(seed):
    """A sub-second config for warm-up and the harness self-check."""
    del seed
    model = dict(PAPER_MODEL, N=3)
    return [dict(full_config(model), t_max=2.0, n_samples=41,
                 saturation={"K": 40, "t_max": 2.0, "n_samples": 201})]


WORKLOADS = {"n5_full": n5_full, "sweep_small": sweep_small,
             "n6_prefix": n6_prefix}
ALL = {**WORKLOADS, "tiny": tiny}
