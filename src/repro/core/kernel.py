"""FlacOS: the coordinated, partially shared rack operating system.

``FlacOS.boot(machine)`` carves global memory, brings up every
subsystem in dependency order, and returns the kernel handle whose
attributes mirror Figure 2:

* ``memory``  — §3.3 memory system (shared page tables, TLBs, dedup)
* ``fs``      — §3.4 FlacFS (shared page cache, local metadata, journal)
* ``ipc``     — §3.5 sockets; ``rpc`` — migration-based RPC;
  ``migrator`` — process migration
* ``boxes``   — §3.6 fault boxes; ``recovery`` — the coordinator;
  plus monitor/predictor from FlacDK

Each node also runs a local OS instance (``node_os``) exposing the
per-node view — the "coordination" half of the design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..flacdk.alloc import FrameAllocator
from ..flacdk.arena import Arena
from ..flacdk.reliability import (
    ChecksumDetector,
    FailurePredictor,
    HealthMonitor,
    HeartbeatDetector,
    MemoryScrubber,
    MirrorSource,
    RepairCoordinator,
)
from ..flacdk.sync import OperationLog
from ..rack.machine import NodeContext, RackMachine
from .boot import BootRom, rack_description
from .devices import DeviceRegistry
from .fault import (
    AdaptiveRedundancyPolicy,
    CheckpointPageSource,
    FaultBoxManager,
    FaultRecoveryCoordinator,
    FsBlockSource,
    NModularExecutor,
    PartialReplicator,
    ReplicaPageSource,
)
from .fs import FlacFS
from .interrupts import InterruptController, IrqBalancer
from .ipc import IpcSystem, NameRegistry, ProcessMigrator, RpcSystem
from .memory import MemorySystem, PAGE_SIZE
from .events import EventCore
from .params import OsCosts
from .sched import RackScheduler

#: bytes of global memory one patrol-scrub quantum walks (the idle
#: loop's per-tick scrub and chaos-under-load's control event)
PATROL_SCRUB_BYTES = 1 << 18


@dataclass
class NodeOS:
    """The local OS instance running on one node (coordinated half)."""

    kernel: "FlacOS"
    ctx: NodeContext

    @property
    def node_id(self) -> int:
        return self.ctx.node_id

    def heartbeat(self) -> None:
        self.kernel.heartbeats.beat(self.ctx)

    def service_shootdowns(self) -> bool:
        """Safe-point duty: ack any pending TLB shootdown."""
        return self.kernel.memory.shootdown.service(
            self.ctx, self.kernel.memory.tlbs[self.node_id]
        )

    def poll_interrupts(self):
        """Drain pending rack-wide IPIs for this node."""
        return self.kernel.interrupts.poll(self.ctx)

    def run_tasks(self, max_tasks: int = 64) -> int:
        """Drain and run tasks the rack scheduler queued to this node."""
        return self.kernel.scheduler.run_pending(self.ctx, max_tasks=max_tasks)

    def idle_tick(self) -> None:
        """What the idle loop does: safe-point duties + background work."""
        self.service_shootdowns()
        self.poll_interrupts()
        # pump the discrete-event core up to the rack's frontier so
        # event-driven subsystems (scheduler drains, traffic wake-ups)
        # make progress even under a purely tick-driven caller
        self.kernel.events.run(until_ns=self.kernel.machine.max_time())
        self.run_tasks(max_tasks=16)
        self.heartbeat()
        self.kernel.fs.writeback_daemon_step(self.ctx, limit=16)
        self.kernel.fs.reclaimer.advance_and_reclaim(self.ctx)
        # patrol scrub: node 0 walks one window of global memory per tick
        # so latent poison is found/repaired before a consumer trips on it
        if self.node_id == 0:
            self.kernel.scrubber.step(self.ctx, max_bytes=PATROL_SCRUB_BYTES)


class FlacOS:
    """The booted rack OS."""

    def __init__(self, machine: RackMachine, costs: Optional[OsCosts] = None) -> None:
        self.machine = machine
        self.costs = costs or OsCosts()
        boot_ctx = machine.context(0)

        budget = machine.global_size
        self.arena = Arena(machine.global_base, budget)

        # §3.3 memory system
        self.memory = MemorySystem(
            machine,
            self.arena,
            costs=self.costs,
            global_frame_bytes=max(1 << 22, budget // 8),
            local_frame_bytes=min(1 << 22, machine.local_size(0) // 2),
        )

        # §3.4 file system
        self.fs = FlacFS(
            machine, self.arena, costs=self.costs, cache_bytes=max(1 << 22, budget // 4)
        )
        self.memory.set_file_reader(self._file_reader)

        # §3.5 communication
        registry_log = OperationLog(
            self.arena.take(OperationLog.region_size(1024), align=64), 1024
        ).format(boot_ctx)
        self.registry = NameRegistry(registry_log)
        self.ipc = IpcSystem(
            machine, self.arena, self.registry, costs=self.costs,
            heap_bytes=max(1 << 22, budget // 16),
        )
        self.rpc = RpcSystem(machine, self.registry, self.ipc.buffers, costs=self.costs)
        self.migrator = ProcessMigrator(self.memory, costs=self.costs)

        # §3.6 reliability
        self.monitor = HealthMonitor(machine.faults.log, page_size=PAGE_SIZE)
        self.predictor = FailurePredictor(self.monitor)
        self.checksums = ChecksumDetector()
        self.heartbeats = HeartbeatDetector(
            self.arena.take(HeartbeatDetector.region_size(len(machine.nodes)), align=8),
            len(machine.nodes),
            timeout_ns=1e7,
        ).format(boot_ctx)
        self.boxes = FaultBoxManager(self.memory, costs=self.costs)
        standby_bytes = max(1 << 22, budget // 16)
        self.standby_frames = FrameAllocator(
            self.arena.take(standby_bytes, align=PAGE_SIZE), standby_bytes
        ).format(boot_ctx)
        self.replicator = PartialReplicator(self.boxes, self.standby_frames)
        self.policy = AdaptiveRedundancyPolicy(self.predictor)
        self.recovery = FaultRecoveryCoordinator(
            self.boxes, self.policy, replicator=self.replicator, monitor=self.monitor
        )
        self.nmodular = NModularExecutor()

        # self-healing: detect -> contain -> repair -> prevent.  Source
        # order is freshest-first: standby replica, n-modular mirror,
        # latest checkpoint page, FlacFS block layer.
        self.mirrors = MirrorSource()
        self.repair = RepairCoordinator(
            machine,
            sources=[
                ReplicaPageSource(self.boxes, self.replicator),
                self.mirrors,
                CheckpointPageSource(self.boxes),
                FsBlockSource(self.fs),
            ],
        ).install()
        self.scrubber = MemoryScrubber(
            machine,
            repair=self.repair,
            predictor=self.predictor,
            evacuate=self.memory.migrate_global_page,
        )

        # §5 extensions: rack-wide interrupts, shared devices, boot rom
        self.interrupts = InterruptController(
            self.arena.take(InterruptController.region_size(len(machine.nodes)), align=8),
            len(machine.nodes),
        ).format(boot_ctx)
        self.irqs = IrqBalancer(
            self.arena.take(IrqBalancer.region_size(64), align=8), 64, self.interrupts
        ).format(boot_ctx)
        self.devices = DeviceRegistry(self.registry, self.ipc.buffers)
        self.bootrom = BootRom(self.arena.take(1 << 16, align=64))
        self.bootrom.publish(boot_ctx, rack_description(machine))
        #: rack-wide discrete-event core; subsystems register wake-ups
        #: instead of being polled every tick
        self.events = EventCore(machine)
        self.scheduler = RackScheduler(
            machine,
            self.arena.take(RackScheduler.ctrl_size(len(machine.nodes)), align=8),
            ring_alloc=self.ipc.heap.alloc,
            events=self.events,
            costs=self.costs,
        )

        # active health (repro.telemetry.health); opt-in via attach_health
        self.health = None

        self._node_os: Dict[int, NodeOS] = {
            node_id: NodeOS(self, machine.context(node_id)) for node_id in machine.nodes
        }

    @classmethod
    def boot(cls, machine: RackMachine, costs: Optional[OsCosts] = None) -> "FlacOS":
        return cls(machine, costs=costs)

    def attach_health(self, **kwargs):
        """Build, wire, and install a :class:`HealthEngine` for this rack.

        Connects the engine to the kernel's own monitor/predictor/recovery
        so burn alerts and anomalies feed the existing self-healing
        pipeline (predictor-driven evacuation) and fault-box incidents
        land in the flight recorder.  Idempotent per kernel.
        """
        from ..telemetry.health import HealthEngine

        if self.health is None:
            kwargs.setdefault("monitor", self.monitor)
            kwargs.setdefault("predictor", self.predictor)
            kwargs.setdefault("recovery", self.recovery)
            self.health = HealthEngine(self.machine, **kwargs).install()
        return self.health

    def node_os(self, node_id: int) -> NodeOS:
        return self._node_os[node_id]

    def context(self, node_id: int) -> NodeContext:
        return self.machine.context(node_id)

    # -- observability -----------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """One snapshot of every subsystem's counters (operator view)."""
        ctx = self.machine.context(0)
        from ..rack.faults import FaultKind

        return {
            "page_cache": {
                "hits": self.fs.page_cache.stats.hits,
                "misses": self.fs.page_cache.stats.misses,
                "hit_rate": round(self.fs.page_cache.stats.hit_rate(), 4),
                "cached_bytes": self.fs.cache_footprint_bytes(ctx),
                "writebacks": self.fs.page_cache.stats.writebacks,
                "version_swaps": self.fs.page_cache.stats.version_swaps,
            },
            "cpu_caches": {
                node_id: {
                    "hit_rate": round(node.cache.stats.hit_rate(), 4),
                    "writebacks": node.cache.stats.writebacks,
                    "invalidations": node.cache.stats.invalidations,
                }
                for node_id, node in self.machine.nodes.items()
            },
            "faults": {
                "correctable": self.monitor.total(FaultKind.CORRECTABLE),
                "uncorrectable": self.monitor.total(FaultKind.UNCORRECTABLE),
                "node_crashes": self.monitor.total(FaultKind.NODE_CRASH),
            },
            "ipc": {
                "live_buffers": self.ipc.buffers.live_buffers,
                "buffer_bytes_written": self.ipc.buffers.bytes_written,
            },
            "rpc": {
                "calls": self.rpc.stats.calls,
                "context_fetches": self.rpc.stats.context_fetches,
            },
            "scheduler": {
                node_id: self.scheduler.load_of(ctx, node_id)
                for node_id in self.machine.nodes
            },
            "fault_boxes": {
                "total": len(self.boxes.boxes),
                "failed": len(self.boxes.failed_boxes()),
            },
            "self_healing": {
                "repairs_attempted": self.repair.stats.attempted,
                "repaired": self.repair.stats.repaired,
                "unrepairable": self.repair.stats.unrepairable,
                "by_source": dict(self.repair.stats.by_source),
                "scrub_passes": self.scrubber.stats.passes,
                "latent_pages_found": self.scrubber.stats.latent_pages_found,
                "evacuated": self.scrubber.stats.evacuated,
            },
            "clocks_us": {
                node_id: round(self.machine.now(node_id) / 1000, 1)
                for node_id in self.machine.nodes
            },
        }

    # -- cross-subsystem glue ---------------------------------------------------------

    def _file_reader(self, ctx: NodeContext, file_id: int, offset: int, size: int) -> bytes:
        """mmap-file backing: pull pages from FlacFS's shared cache."""
        page_idx = offset // PAGE_SIZE
        page_off = offset % PAGE_SIZE
        return self.fs.page_cache.read(
            ctx, file_id, page_idx, page_off, min(size, PAGE_SIZE - page_off),
            self.fs._loader(file_id, page_idx),
        )
