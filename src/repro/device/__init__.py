"""RRAM device models: cells, lognormal variation, LUTs, programming."""

from repro.device.cell import MLC2, SLC, CellType
from repro.device.faults import FaultMap, sample_fault_map
from repro.device.lut import (DeviceLUT, DeviceModel, build_lut_analytic,
                              build_lut_monte_carlo)
from repro.device.programming import WriteVerifyResult, write_verify
from repro.device.variation import VariationModel

__all__ = [
    "CellType", "SLC", "MLC2", "VariationModel",
    "DeviceModel", "DeviceLUT", "build_lut_analytic", "build_lut_monte_carlo",
    "write_verify", "WriteVerifyResult",
    "FaultMap", "sample_fault_map",
]
