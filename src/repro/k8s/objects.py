"""Kubernetes API objects (the subset the experiments exercise)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class PodPhase(enum.Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


class RestartPolicy(enum.Enum):
    """Pod-level container restart policy (the kubelet's retry contract).

    In this reproduction the workloads are deterministic, so a fault that
    reproduces on every attempt (bad module, guest trap) is classified
    permanent regardless of policy; the policy governs *transient*
    failures (injected faults, memory pressure). ``ALWAYS`` and
    ``ON_FAILURE`` behave identically here because containers never
    exit-and-linger — pods run until torn down.
    """

    ALWAYS = "Always"
    ON_FAILURE = "OnFailure"
    NEVER = "Never"


#: waiting/terminal reasons the kubelet records on ``Pod.reason``
REASON_CRASH_LOOP_BACKOFF = "CrashLoopBackOff"
REASON_IMAGE_PULL_BACKOFF = "ImagePullBackOff"
REASON_MEMORY_PRESSURE = "MemoryPressure"
REASON_EVICTED = "Evicted"
REASON_OOM = "OutOfMemory"
REASON_ERROR = "Error"
REASON_NODE_FAILURE = "NodeFailure"


@dataclass
class ContainerSpec:
    """One container within a pod spec."""

    name: str
    image: str
    command: Optional[List[str]] = None
    env: Dict[str, str] = field(default_factory=dict)


@dataclass
class PodSpec:
    containers: List[ContainerSpec]
    runtime_class_name: Optional[str] = None  # selects the runtime config
    node_selector: Dict[str, str] = field(default_factory=dict)
    restart_policy: RestartPolicy = RestartPolicy.ALWAYS


@dataclass
class Pod:
    """A pod object as stored in the API server."""

    name: str
    uid: str
    spec: PodSpec
    phase: PodPhase = PodPhase.PENDING
    node_name: Optional[str] = None
    created_at: float = 0.0
    scheduled_at: Optional[float] = None
    running_at: Optional[float] = None
    #: when the last container's workload began executing (Figs 8–9 probe)
    exec_started_at: Optional[float] = None
    status_message: str = ""
    #: machine-readable status reason (CrashLoopBackOff, Evicted, ...)
    reason: str = ""
    #: kubelet sync retries performed so far
    restart_count: int = 0
    #: simulated time until which the kubelet is backing off (None = not)
    backoff_until: Optional[float] = None
    #: readiness-probe verdict; only meaningful while Running (a pod
    #: that fails readiness keeps running but leaves the ready count)
    ready: bool = True


@dataclass
class RuntimeClass:
    """Maps a manifest's runtimeClassName to a CRI runtime handler."""

    name: str
    handler: str  # containerd runtime config id, e.g. "crun-wamr"


@dataclass
class NodeInfo:
    """Scheduler-visible node state."""

    name: str
    #: §III-C: "We extend the Kubernetes cluster configuration ...
    #: now supporting up to 500 pods per node."
    max_pods: int = 500
    allocatable_memory: int = 256 * 1024**3
    labels: Dict[str, str] = field(default_factory=dict)
    runtime_handlers: List[str] = field(default_factory=list)
    pod_uids: List[str] = field(default_factory=list)
    #: cordoned / failed nodes are filtered out of scheduling entirely;
    #: set it through ``APIServer.cordon`` so the scheduler sees it
    unschedulable: bool = False

    @property
    def pod_count(self) -> int:
        return len(self.pod_uids)

    def has_capacity(self) -> bool:
        return self.pod_count < self.max_pods

    def supports_handler(self, handler: Optional[str]) -> bool:
        return handler is None or handler in self.runtime_handlers

    def matches_selector(self, selector: Dict[str, str]) -> bool:
        return all(self.labels.get(k) == v for k, v in selector.items())
