"""Trace-driven simulator for energy-attack mitigation on intermittent devices."""

from .apps import AppSpec, DataQueue, Profile, TaskSpec, Token, builtin_app, validate
from .detector import NO_ATTACK, AttackInfo, DetectorConfig, detect
from .energy import Capacitor, CapacitorBank, Component
from .engine import (
    EventLog,
    MetricsReport,
    SimConfig,
    init_sim,
    run,
    step,
)
from .policy import (
    PolicyDecision,
    PolicyParams,
    SchedulerState,
    TaskState,
    allocate_harvest,
    init_scheduler,
    policy_step,
    select_profile,
)
from .traces import AttackScenario, EnergyTrace, load_trace, synthesize_trace

__all__ = [
    "AppSpec",
    "AttackInfo",
    "AttackScenario",
    "Capacitor",
    "CapacitorBank",
    "Component",
    "DataQueue",
    "DetectorConfig",
    "EnergyTrace",
    "EventLog",
    "MetricsReport",
    "NO_ATTACK",
    "PolicyDecision",
    "PolicyParams",
    "Profile",
    "SchedulerState",
    "SimConfig",
    "TaskSpec",
    "TaskState",
    "Token",
    "allocate_harvest",
    "builtin_app",
    "detect",
    "init_scheduler",
    "init_sim",
    "load_trace",
    "policy_step",
    "run",
    "select_profile",
    "step",
    "synthesize_trace",
    "validate",
]

__version__ = "0.1.0"
