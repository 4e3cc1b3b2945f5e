"""The fan-out surface: behavior-preservation goldens + units.

Every fan-out (mapreduce, MCDB, the sharded particle filter, the
ensemble scheduler) calls a :mod:`repro.parallel` backend directly and
claims *zero behavior change* across refactors of that path.  The
goldens below pin result fingerprints captured on the original
implementations; if a fan-out drifts — seeds, ordering, retry
semantics, anything — a fingerprint moves and the test names which
subsystem.

The unit half covers the surface itself: ordered fan-out through
``Backend.map``/``map_with_stats``, retry accounting, run-to-terminal-
state node dispatch (``run_node``), degrade-mode collection, the two
seed-spawning conventions of ``MonteCarloDatabase``, and the canonical
key hashing shared by the mapreduce shuffle and partitioned tables.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.assimilation.particle_filter import (
    LinearGaussianSSM,
    particle_filter,
)
from repro.engine import Database, Schema
from repro.ensemble import result_fingerprint, run_ensemble
from repro.ensemble.scenarios import response_sweep_ensemble
from repro.ensemble.scheduler import NodePayload, TaskOutcome, run_node
from repro.faults.plan import FaultPlan, injected
from repro.faults.retry import NO_RETRY, RetryPolicy, TaskFailed
from repro.mapreduce import Cluster, MapReduceJob, sum_reducer
from repro.mcdb import MonteCarloDatabase, NormalVG, RandomTableSpec
from repro.parallel import get_backend
from repro.parallel.keys import canonical_key_bytes, partition_index
from repro.stats import make_rng


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # CI jobs export backend/fault knobs globally; goldens must run on
    # the exact configuration they were captured on.
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


# -- golden workloads (module-level so every piece pickles) ------------------

def _wc_mapper(_, line):
    for word in line.split():
        yield word, 1


def _build_sbp_mcdb():
    db = Database()
    db.create_table("patients", Schema.of(pid=int, gender=str))
    for i in range(30):
        db.table("patients").insert(
            {"pid": i, "gender": "f" if i % 2 else "m"}
        )
    db.create_table("sbp_param", Schema.of(mean=float, std=float))
    db.table("sbp_param").insert({"mean": 120.0, "std": 10.0})
    mc = MonteCarloDatabase(db, seed=42)
    mc.register_random_table(
        RandomTableSpec(
            name="sbp_data",
            vg=NormalVG(),
            outer_table="patients",
            parameters="SELECT mean, std FROM sbp_param",
            select={
                "pid": "outer.pid",
                "gender": "outer.gender",
                "sbp": "vg.value",
            },
        )
    )
    return mc


def _avg_sbp(inst):
    return inst.sql("SELECT AVG(sbp) AS m FROM sbp_data")[0]["m"]


def _bundle_avg(bundles, _db):
    return bundles["sbp_data"].aggregate_avg("sbp")


#: Fingerprints captured on the pre-substrate implementations of each
#: subsystem (identical across repeated runs).  These are the oracle
#: for "the port changed nothing".
GOLDEN = {
    "mapreduce": (
        "b00b1f0041bc508a526fa13feeee7d087242abeed9ac84f8f745ed0aead928ab"
    ),
    "mcdb_naive": (
        "dd46196247f220cd18f0cb4fe8d5c633b8c54c3b3ed6c50af973f8c54be70856"
    ),
    "mcdb_bundled": (
        "a0d2593243f2070b4032de4a3d17cf6f07677fd87ba19a24761eff24725ec2d4"
    ),
    "particle_filter": (
        "f645af67d371fbbbca5b9c0ddab0c2440df3f4e34e3838fc148a14a70c3392e6"
    ),
    "ensemble": (
        "cb09793c0ae02283c1e4859de39c379ca667b8599b815f33961b1ce31a9f0d57"
    ),
}


class TestPortGoldens:
    """Every ported subsystem reproduces its pre-refactor fingerprint."""

    def test_mapreduce(self):
        job = MapReduceJob("wc", _wc_mapper, sum_reducer, num_reducers=3)
        inputs = [(None, f"alpha beta w{i % 5} w{i % 3}") for i in range(24)]
        with injected(None):
            out = Cluster(num_workers=3).run(job, inputs)
        fp = result_fingerprint([list(pair) for pair in out])
        assert fp == GOLDEN["mapreduce"]

    def test_mcdb_naive(self):
        mc = _build_sbp_mcdb()
        with injected(None):
            dist = mc.run_naive(_avg_sbp, n_mc=24, backend="serial")
        assert result_fingerprint(dist.samples) == GOLDEN["mcdb_naive"]

    def test_mcdb_bundled(self):
        mc = _build_sbp_mcdb()
        with injected(None):
            dist = mc.run_bundled(_bundle_avg, n_mc=16, backend="serial")
        assert result_fingerprint(dist.samples) == GOLDEN["mcdb_bundled"]

    def test_particle_filter(self):
        ssm = LinearGaussianSSM()
        _, y = ssm.simulate(25, make_rng(3))
        with injected(None):
            result = particle_filter(
                ssm.to_state_space_model(),
                y,
                60,
                backend="serial",
                seed=11,
                n_shards=4,
            )
        fp = result_fingerprint(
            {
                "filtered_means": result.filtered_means,
                "log_likelihood": result.log_likelihood,
                "ess": result.effective_sample_sizes,
            }
        )
        assert fp == GOLDEN["particle_filter"]

    def test_ensemble(self):
        with injected(None):
            result = run_ensemble(
                response_sweep_ensemble(seed=5, quick=True), backend="serial"
            )
        fp = result_fingerprint(dict(sorted(result.fingerprints().items())))
        assert fp == GOLDEN["ensemble"]

    @pytest.mark.parametrize("backend", ("process",))
    def test_goldens_backend_invariant(self, backend):
        # Spot-check one golden per fan-out style off the serial path.
        job = MapReduceJob("wc", _wc_mapper, sum_reducer, num_reducers=3)
        inputs = [(None, f"alpha beta w{i % 5} w{i % 3}") for i in range(24)]
        with injected(None):
            out = Cluster(num_workers=3, backend=backend).run(job, inputs)
        fp = result_fingerprint([list(pair) for pair in out])
        assert fp == GOLDEN["mapreduce"]


# -- fan-out units -----------------------------------------------------------

def _square(x):
    return x * x


def _node_square(params, seed, upstream):
    return params["x"] * params["x"]


def _node_boom(params, seed, upstream):
    raise ValueError(f"boom {params['x']}")


def _node_payload(fn, x, index):
    return NodePayload(
        name=f"n{index}",
        scenario="t.node",
        fn=fn,
        params={"x": x},
        seed=0,
        upstream={},
        index=index,
        policy=NO_RETRY,
        plan=None,
        checkpoint_dir=None,
        key=f"k{index}",
    )


class TestBackendMap:
    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_map_preserves_item_order(self, backend):
        items = list(range(23))
        assert get_backend(backend).map(_square, items, scope="t.sq") == [
            i * i for i in items
        ]

    def test_backend_instance_passthrough(self):
        backend = get_backend("serial")
        assert get_backend(backend) is backend
        assert get_backend("serial") is backend

    def test_map_with_stats_counts_injected_retries(self):
        plan = FaultPlan(failures={("t.flaky", 2): 1})
        results, stats = get_backend("serial").map_with_stats(
            _square,
            range(5),
            scope="t.flaky",
            faults=plan,
            retry=RetryPolicy(max_attempts=2),
        )
        assert results == [0, 1, 4, 9, 16]
        assert stats.attempts == 6
        assert stats.tasks_retried == 1
        assert stats.injected == 1
        assert stats.tasks_failed == 0

    def test_map_collect_marks_terminal_failures(self):
        plan = FaultPlan(failures={("t.dead", 1): 3})
        outputs = get_backend("serial").map(
            _square,
            range(3),
            scope="t.dead",
            faults=plan,
            retry=RetryPolicy(max_attempts=2),
            on_error="collect",
        )
        failures = [o for o in outputs if isinstance(o, TaskFailed)]
        survivors = [o for o in outputs if not isinstance(o, TaskFailed)]
        assert survivors == [0, 4]
        assert [f.index for f in failures] == [1]

    def test_run_node_ok_and_failed(self):
        ok = run_node(_node_payload(_node_square, 7, 0))
        assert isinstance(ok, TaskOutcome)
        assert (ok.status, ok.value) == ("ok", 49)
        assert ok.stats.attempts == 1
        dead = run_node(_node_payload(_node_boom, 7, 1))
        assert dead.status == "failed"
        assert isinstance(dead.value, TaskFailed)
        assert dead.value.index == 1
        assert dead.stats.tasks_failed == 1

    @pytest.mark.parametrize("backend", ("serial", "process"))
    def test_run_node_fan_out_never_raises(self, backend):
        payloads = [
            _node_payload(_node_boom if i == 1 else _node_square, i, i)
            for i in range(4)
        ]
        outcomes = get_backend(backend).map(
            run_node, payloads, scope="t.dispatch"
        )
        assert [o.status for o in outcomes] == ["ok", "failed", "ok", "ok"]
        assert [o.value for o in outcomes if o.status == "ok"] == [0, 4, 9]

    def test_spawned_rng_matches_seedsequence_convention(self):
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy=123, spawn_key=(5,))
        )
        mc = MonteCarloDatabase(Database(), seed=123)
        assert mc._rng_for(5).random(4).tolist() == expected.random(
            4
        ).tolist()

    def test_crc32_rng_matches_named_stream_convention(self):
        expected = np.random.default_rng(
            np.random.SeedSequence(
                entropy=9, spawn_key=(zlib.crc32(b"sbp_data"),)
            )
        )
        mc = MonteCarloDatabase(Database(), seed=9)
        assert mc._bundle_rng_for("sbp_data").random(4).tolist() == (
            expected.random(4).tolist()
        )


class TestCanonicalKeys:
    def test_equality_equal_numerics_share_bytes(self):
        assert canonical_key_bytes(1) == b"1"
        assert canonical_key_bytes(1.0) == b"1"
        assert canonical_key_bytes(True) == b"1"
        assert canonical_key_bytes(np.int64(1)) == b"1"
        assert canonical_key_bytes(0.0) == canonical_key_bytes(False)
        assert canonical_key_bytes(1.5) == b"1.5"
        assert canonical_key_bytes(np.float64(1.5)) == b"1.5"

    def test_strings_keep_their_repr(self):
        # Pre-existing string-keyed assignments must not move.
        assert canonical_key_bytes("a") == repr("a").encode()
        assert partition_index("a", 7) == zlib.crc32(b"'a'") % 7

    def test_tuples_canonicalize_elementwise(self):
        assert canonical_key_bytes((1.0, "x")) == canonical_key_bytes(
            (True, "x")
        )
        assert canonical_key_bytes((1, 2)) != canonical_key_bytes((1, 2.5))

    def test_partition_index_is_equality_invariant(self):
        for n in (2, 3, 5, 7, 16):
            assert (
                partition_index(1, n)
                == partition_index(1.0, n)
                == partition_index(True, n)
            )
            assert partition_index(0, n) == partition_index(0.0, n)

    def test_partition_index_range(self):
        for key in (0, 1, 17.5, "abc", None.__class__, (1, "x")):
            assert 0 <= partition_index(key, 5) < 5
