"""The byte-by-byte attack: must break SSP, must stall everywhere else.

The statistical tests at the end check the paper's brute-force claims
against analytic models with stated bounds rather than "breaches > 0",
following "Methodologies for Quantifying (Re-)randomization Security
and Timing under JIT-ROP" (PAPERS.md).  Each runs the attack against a
fixed set of seeded servers, so its statistic is deterministic; the
bound says how far from the model it may lie before the model (or the
scheme) is wrong.
"""

import math
from statistics import NormalDist, fmean

import pytest

from repro.attacks.byte_by_byte import byte_by_byte_attack, expected_ssp_trials
from repro.attacks.oracle import ForkingServer
from repro.attacks.payloads import frame_map
from repro.core.deploy import build, deploy
from repro.crypto.random import EntropySource
from repro.kernel.kernel import Kernel

#: byte-by-byte attack campaigns — excluded from the CI quick-signal subset.
pytestmark = pytest.mark.slow

VICTIM = """
int handler(int n) {
    char buf[64];
    read(0, buf, 4096);
    return 0;
}
int main() { return 0; }
"""


def make_server(scheme, seed=301):
    kernel = Kernel(seed)
    binary = build(VICTIM, scheme, name="srv")
    parent, _ = deploy(kernel, binary, scheme)
    return ForkingServer(kernel, parent), frame_map(binary, "handler")


class TestAgainstSSP:
    def test_attack_succeeds(self):
        server, frame = make_server("ssp")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        assert report.success
        assert report.verified

    def test_trials_near_paper_estimate(self):
        # Paper: ~1024 average; terminator byte makes the first byte free.
        server, frame = make_server("ssp")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        assert 8 <= report.trials <= 2200

    def test_recovers_the_actual_canary(self):
        server, frame = make_server("ssp")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        child = server.worker()
        assert report.recovered_words[0] == child.tls.canary

    def test_first_byte_is_terminator(self):
        server, frame = make_server("ssp")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        assert report.recovered[0] == 0x00
        assert report.per_byte_trials[0] == 1  # guess order starts at 0


@pytest.mark.parametrize("scheme", ["pssp", "pssp-nt", "pssp-gb", "raf-ssp",
                                    "dynaguard", "dcr"])
class TestAgainstRerandomizingSchemes:
    def test_attack_fails(self, scheme):
        server, frame = make_server(scheme)
        report = byte_by_byte_attack(server, frame, max_trials=3000)
        assert not report.success, f"byte-by-byte broke {scheme}!"

    def test_no_accumulated_advantage(self, scheme):
        # The attacker never gets far into the canary region: each
        # "confirmed" byte is stale by the next fork, so progress stalls
        # well short of the full region.
        server, frame = make_server(scheme)
        report = byte_by_byte_attack(server, frame, max_trials=3000)
        assert len(report.recovered) < frame.canary_region_size


class TestAgainstInstrumentedPSSP:
    def test_attack_fails_on_rewritten_binary(self):
        server, frame = make_server("pssp-binary")
        report = byte_by_byte_attack(server, frame, max_trials=2500)
        assert not report.success


class TestAnalytics:
    def test_expected_trials_with_terminator(self):
        assert expected_ssp_trials(8) == 1 + 7 * 128.5

    def test_expected_trials_without_terminator(self):
        assert expected_ssp_trials(8, terminator=False) == 8 * 128.5

    def test_random_guess_order_also_breaks_ssp(self):
        server, frame = make_server("ssp", seed=302)
        report = byte_by_byte_attack(
            server, frame, max_trials=8000, entropy=EntropySource(7)
        )
        assert report.success


#: Significance level of every bound in this file.
ALPHA = 0.001

#: Seeded campaigns per test: 40 independent kernels (and canaries).
SEEDS = range(5000, 5040)


def test_ssp_trials_per_byte_match_uniform_guessing():
    """SSP keeps one canary across forks, so each byte falls alone.

    Model: the attacker scans guesses 0, 1, ... and the server's canary
    bytes above the terminator are independent and uniform, so the
    trials to confirm one byte are uniform on {1, ..., 256}: mean
    (256 + 1) / 2 = 128.5 (the per-byte term of ``expected_ssp_trials``)
    and variance (256**2 - 1) / 12.  Bound: over n byte samples the
    sample mean lies in 128.5 +- z * sqrt(variance / n), with z the
    two-sided normal quantile at ALPHA (CLT; n = 280 here, z ~ 3.29).
    """
    samples = []
    for seed in SEEDS:
        server, frame = make_server("ssp", seed=seed)
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        assert report.success and report.per_byte_trials[0] == 1
        samples += report.per_byte_trials[1:]
    per_byte = (expected_ssp_trials(8) - 1) / 7
    assert per_byte == 128.5
    half_width = NormalDist().inv_cdf(1 - ALPHA / 2) * math.sqrt(
        (256 ** 2 - 1) / 12 / len(samples))
    assert abs(fmean(samples) - per_byte) <= half_width, (
        fmean(samples), per_byte, half_width)


def _binomial_upper_bound(trials, p, alpha):
    """Smallest c with P(X > c) <= alpha for X ~ Binomial(trials, p)."""
    below, c = 0.0, -1
    while 1 - below > alpha:
        c += 1
        below += math.comb(trials, c) * p ** c * (1 - p) ** (trials - c)
    return c


def test_pssp_later_confirmations_stay_under_binomial_bound():
    """P-SSP re-randomizes the stack canary on every fork.

    Model: with a fresh uniform canary per fork, a probe for byte k
    survives only if bytes 0..k of the new canary all equal the
    attacker's prefix and guess, with probability 256**-(k + 1).  So
    every probe after the first confirmed byte succeeds with
    probability at most p = 2**-16, and the confirmations X among the N
    such probes are dominated by Binomial(N, p).  Bound: X stays at or
    under the one-sided binomial quantile at ALPHA.  A canary that
    survived the fork would confirm about N / 128 bytes here, as SSP
    does.
    """
    probes = confirmations = 0
    for seed in SEEDS:
        server, frame = make_server("pssp", seed=seed)
        report = byte_by_byte_attack(server, frame, max_trials=3000)
        assert not report.success
        if report.per_byte_trials:
            probes += report.trials - report.per_byte_trials[0]
            confirmations += len(report.per_byte_trials) - 1
    assert probes >= 2560  # at least ten full scans of a later byte
    bound = _binomial_upper_bound(probes, 2 ** -16, ALPHA)
    assert confirmations <= bound, (confirmations, probes, bound)
