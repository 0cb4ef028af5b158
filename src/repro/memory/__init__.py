"""Expert placement and cache sizing/initialization."""

from repro.memory.cache import (
    CacheConfig,
    build_calibrated_placement,
    uniform_placement,
)
from repro.memory.lru import LRUExpertCache
from repro.memory.policies import LFU, LRU, POLICIES, PRIORITY, EvictionPolicyCache
from repro.memory.placement import ExpertPlacement

__all__ = [
    "CacheConfig",
    "build_calibrated_placement",
    "uniform_placement",
    "LRUExpertCache",
    "LFU",
    "LRU",
    "POLICIES",
    "PRIORITY",
    "EvictionPolicyCache",
    "ExpertPlacement",
]
