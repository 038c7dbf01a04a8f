"""Sharding is routing, not semantics: results never depend on N.

Pins the tentpole invariants of the sharded fleet tier on arbitrary
tenant populations and record streams:

* the consistent-hash ring is a pure deterministic function of
  (tenant id, seed, shard count), and growing it strands as few
  tenants as consistent hashing promises;
* scatter-gather queries through a :class:`ShardedFleet` are
  bit-identical to one :class:`FleetService` at 1, 2, and 8 shards,
  round after round and under a heartbeat deadline — shard topology
  can never leak into an answer or a lifecycle state;
* per-tenant goodput buckets always sum to the tenant's total charged
  wall time (every charge lands in exactly one bucket);
* one service's ready-set pump and accept-ordered heartbeat leave the
  same lifecycle states, queues, quarantine order and counters as a
  model that scans every tenant on every pump.
"""

from collections import deque

from hypothesis import example, given, settings, strategies as st

from repro.core.profiler.record import ProfileRecord, StepStats
from repro.core.profiler.serialize import record_checksum
from repro.runtime.events import DeviceKind
from repro.serve import (
    FleetService,
    FleetServiceOptions,
    HashRing,
    ShardedFleet,
    ShardedFleetOptions,
)

_OP_SETS = (
    ("matmul", "fusion", "relu"),
    ("conv", "pool", "softmax"),
)

tenant_ids = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=6,
    unique=True,
)


def _record(index, mix, idle_us):
    record = ProfileRecord(index=index, window_start_us=0.0, window_end_us=1.0)
    step = StepStats(step=index)
    for name in _OP_SETS[mix]:
        step.observe(name, DeviceKind.TPU, 10.0)
    step.start_us = index * 100.0
    step.end_us = (index + 1) * 100.0
    step.tpu_idle_us = idle_us
    step.mxu_flops = 1e6
    record.steps[index] = step
    return record


#: Per-tenant rounds: each lists the records, as (behaviour mix, idle
#: microseconds), that the tenant sends before that round's global pump.
rounds = st.lists(
    st.lists(st.tuples(st.integers(0, 1), st.floats(0.0, 100.0)), max_size=4),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(tenant_ids, st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_routing_is_deterministic_and_in_range(tenants, shards, seed):
    one = HashRing(shards, seed=seed)
    two = HashRing(shards, seed=seed)
    for tenant in tenants:
        route = one.route(tenant)
        assert route == two.route(tenant)
        assert 0 <= route < shards


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_resize_strands_only_arc_claimed_tenants(shards, seed):
    ring = HashRing(shards, seed=seed)
    grown = ring.resized(shards + 1)
    for i in range(300):
        before, after = ring.route(f"t{i}"), grown.route(f"t{i}")
        # a tenant either stays put or moves to the newly added shard
        assert after == before or after == shards


@settings(max_examples=10, deadline=None)
@given(
    st.dictionaries(st.sampled_from("abcdef"), rounds, min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(1, 5)),
)
# A tenant with a busy neighbour must not age faster on a shard: b sends
# one record, then a sends 40 in each of three rounds. One service pumps
# three times and never stalls b.
@example(population={"b": [[(0, 0.0)]], "a": [[(0, 0.0)] * 40] * 3}, deadline=5)
def test_scatter_gather_identical_at_any_shard_count(population, deadline):
    options = FleetServiceOptions(heartbeat_deadline=deadline)
    single = FleetService(options)
    fleets = [
        ShardedFleet(ShardedFleetOptions(shards=shards, service=options))
        for shards in (1, 2, 8)
    ]
    for service in [single] + fleets:
        for tenant in population:
            service.register("bert-mrpc", job_id=tenant)

    def play(service, round_index):
        for tenant, sends in population.items():
            if round_index >= len(sends):
                continue
            first = sum(len(batch) for batch in sends[:round_index])
            for offset, (mix, idle) in enumerate(sends[round_index]):
                record = _record(first + offset, mix, idle)
                service.submit(tenant, record, checksum=record_checksum(record))
        service.pump()

    def lifecycle(service):
        metrics = service.metrics
        snapshots = [service.job_snapshot(tenant) for tenant in population]
        return snapshots, metrics.jobs_stalled, metrics.jobs_resumed

    for round_index in range(max(len(sends) for sends in population.values())):
        for service in [single] + fleets:
            play(service, round_index)
        for fleet in fleets:
            assert lifecycle(fleet) == lifecycle(single)
    for service in [single] + fleets:
        for tenant in population:
            service.complete(tenant)
    reference = single.fleet_snapshot()
    for fleet in fleets:
        assert fleet.fleet_snapshot() == reference
        for tenant in population:
            assert fleet.job_snapshot(tenant) == single.job_snapshot(tenant)
            assert fleet.similar_phases(tenant) == single.similar_phases(tenant)
        report = fleet.goodput_report()
        for row in report.tenants:
            assert abs(row.total_us - (row.goodput_us + row.badput_us)) < 1e-6


class _ScanModel:
    """Every pump scans every tenant: the rule before the ready set.

    Records carry one step each. A negative index fails validation at
    submit; a step at or below the tenant's last released step is
    rejected by the assembler at drain time, so the quarantine order
    records the drain order.
    """

    def __init__(self, tenants, capacity, deadline, quarantine_capacity):
        self.tenants = tenants
        self.capacity = capacity
        self.deadline = deadline
        self.state = {t: "registered" for t in tenants}
        self.queue = {t: deque() for t in tenants}
        self.released = {t: -1 for t in tenants}
        self.pending = {t: set() for t in tenants}
        self.last_accept: dict[str, int] = {}
        self.quarantine = deque(maxlen=quarantine_capacity)
        self.tick = 0
        self.ingested = self.dropped = self.steps = 0
        self.stalled = self.resumed = 0

    def live(self, tenant):
        return self.state[tenant] in ("registered", "active", "stalled")

    def submit(self, tenant, record):
        if record.index < 0:
            self.quarantine.append((tenant, record.index))
            return
        if self.state[tenant] == "stalled":
            self.resumed += 1
        self.state[tenant] = "active"
        self.last_accept[tenant] = self.tick
        if len(self.queue[tenant]) >= self.capacity:
            self.queue[tenant].popleft()
            self.dropped += 1
        self.queue[tenant].append(record)

    def _fold(self, tenant, record):
        (step,) = record.steps
        if step <= self.released[tenant]:
            self.quarantine.append((tenant, record.index))
            return
        pending = self.pending[tenant]
        pending.add(step)
        done = sorted(number for number in pending if number < max(pending))
        if done:
            pending.difference_update(done)
            self.released[tenant] = done[-1]
            self.steps += len(done)

    def pump(self, tenant=None, max_records=None):
        if tenant is None:
            scanned = [t for t in self.tenants if self.live(t)]
        else:
            scanned = [tenant]
        for name in scanned:
            queue = self.queue[name]
            taken = 0
            while queue and (max_records is None or taken < max_records):
                taken += 1
                self.ingested += 1
                self._fold(name, queue.popleft())
        if tenant is None:
            self.tick += 1
            for name in self.tenants:
                if (
                    self.deadline is not None
                    and self.state[name] == "active"
                    and self.tick - self.last_accept[name] >= self.deadline
                ):
                    self.state[name] = "stalled"
                    self.stalled += 1

    def complete(self, tenant):
        self.pump(tenant)
        pending = self.pending[tenant]
        if pending:
            self.released[tenant] = max(pending)
            self.steps += len(pending)
            pending.clear()
        self.state[tenant] = "completed"

    def evict(self, tenant):
        self.state[tenant] = "evicted"
        self.queue[tenant].clear()


#: (step, sound): an unsound record has a negative index and fails
#: validation; one submission in four is unsound.
_SUBMISSION = st.tuples(st.integers(0, 3), st.integers(0, 3).map(bool))
#: Operation kinds, weighted towards submits and global pumps so that
#: tenants live long enough to interleave.
_KINDS = ("submit",) * 3 + ("pump",) * 3 + (
    "pump_bounded",
    "pump_job",
    "complete",
    "evict",
)
#: (kind, tenant, submission, max_records); each kind reads what it needs.
_OPERATIONS = st.tuples(
    st.sampled_from(_KINDS),
    st.integers(0, 7),
    _SUBMISSION,
    st.integers(1, 3),
)


def _submit(tenant, step):
    return ("submit", tenant, (step, True), 1)


_PUMP = ("pump", 0, (0, True), 1)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 4),
    st.one_of(st.none(), st.integers(1, 3)),
    st.lists(_OPERATIONS, min_size=10, max_size=40),
)
# Drain order: t1 queues a revisit before t0 does, and t0's must still
# reach the quarantine ring first.
@example(
    tenants=2,
    capacity=4,
    deadline=None,
    operations=[_submit(t, s) for t in (0, 1) for s in (0, 1)]
    + [_PUMP, _submit(1, 0), _submit(0, 0), _PUMP],
)
# Heartbeat order: t0's second record moves it behind t1, so the stall
# walk still reaches t1 when t1's deadline passes.
@example(
    tenants=2,
    capacity=4,
    deadline=2,
    operations=[_submit(0, 0), _submit(1, 0), _PUMP, _submit(0, 1), _PUMP, _PUMP],
)
def test_ready_set_pump_matches_the_full_scan(tenants, capacity, deadline, operations):
    names = [f"t{i}" for i in range(tenants)]
    service = FleetService(
        FleetServiceOptions(
            queue_capacity=capacity,
            heartbeat_deadline=deadline,
            quarantine_capacity=5,
        )
    )
    for name in names:
        service.register("bert-mrpc", job_id=name)
    model = _ScanModel(names, capacity, deadline, quarantine_capacity=5)
    serial = iter(range(1, 1 << 30))

    def make_record(step, sound):
        record = _record(step, 0, 0.0)
        record.index = next(serial) if sound else -next(serial)
        return record

    def matches():
        assert [service.registry.get(n).state.value for n in names] == [
            model.state[n] for n in names
        ]
        kept = [n for n in names if model.state[n] != "evicted"]
        assert [service.queue_depth(n) for n in kept] == [
            len(model.queue[n]) for n in kept
        ]
        assert [(q.job_id, q.record.index) for q in service.quarantined()] == list(
            model.quarantine
        )
        metrics = service.metrics
        assert (
            metrics.records_ingested,
            metrics.records_dropped,
            metrics.steps_assembled,
            metrics.jobs_stalled,
            metrics.jobs_resumed,
        ) == (model.ingested, model.dropped, model.steps, model.stalled, model.resumed)

    for kind, tenant_index, submission, bound in operations:
        tenant = names[tenant_index % tenants]
        if kind in ("pump", "pump_bounded"):
            bound = bound if kind == "pump_bounded" else None
            service.pump(max_records=bound)
            model.pump(max_records=bound)
        elif model.state[tenant] == "evicted":
            pass  # every operation on an evicted tenant raises
        elif kind == "evict":
            service.evict(tenant)
            model.evict(tenant)
        elif kind == "pump_job":
            service.pump(tenant)
            model.pump(tenant)
        elif not model.live(tenant):
            pass  # submitting to or completing a completed tenant raises
        elif kind == "complete":
            service.complete(tenant)
            model.complete(tenant)
        else:
            record = make_record(*submission)
            service.submit(tenant, record)
            model.submit(tenant, record)
        matches()
