"""Workload generators: arrival processes and the Section 7.1 datasets."""

from .adversarial import HotKeyFlipSource, hot_key_flip_source
from .arrival import (
    ArrivalProcess,
    ConstantRate,
    PiecewiseRate,
    RampRate,
    SinusoidalRate,
)
from .churn import KeyChurnSource, key_churn_source
from .debs_taxi import debs_taxi_source
from .elastic import ElasticWorkloadSource
from .gcm import gcm_source
from .late import DelayedSource
from .replay import ReplaySource
from .source import DatasetProperties, StreamSource, ZipfKeyedSource
from .synd import SYND_EXPONENTS, synd_source
from .tenants import (
    MultiTenantSource,
    TenantStream,
    TenantTaggedSource,
    tenant_of,
)
from .tpch import tpch_lineitem_source
from .tweets import tweets_source
from .zipf import ZipfSampler

__all__ = [
    "ArrivalProcess",
    "ConstantRate",
    "DatasetProperties",
    "DelayedSource",
    "ElasticWorkloadSource",
    "HotKeyFlipSource",
    "KeyChurnSource",
    "MultiTenantSource",
    "PiecewiseRate",
    "RampRate",
    "ReplaySource",
    "SYND_EXPONENTS",
    "SinusoidalRate",
    "StreamSource",
    "TenantStream",
    "TenantTaggedSource",
    "ZipfKeyedSource",
    "ZipfSampler",
    "debs_taxi_source",
    "gcm_source",
    "hot_key_flip_source",
    "key_churn_source",
    "synd_source",
    "tenant_of",
    "tpch_lineitem_source",
    "tweets_source",
]
