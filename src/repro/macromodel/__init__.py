"""RBF parametric macromodels of digital I/O ports (paper Section 2).

The models here are discrete-time nonlinear dynamic models of the port
current as a function of the present port voltage and of the past ``r``
voltage and current samples (Eq. 1-2 of the paper), represented through
Gaussian radial-basis-function expansions (Eq. 3-4).

* :mod:`repro.macromodel.rbf` — Gaussian RBF expansions with analytic
  gradients, the building block of every submodel.
* :mod:`repro.macromodel.regressor` — regressor-vector machinery shared by
  simulation and identification.
* :mod:`repro.macromodel.driver` — the two-submodel switching driver model
  (Eq. 5) with time-varying weights.
* :mod:`repro.macromodel.receiver` — the receiver model (Eq. 6): linear
  submodel plus up/down protection-circuit RBF submodels.
* :mod:`repro.macromodel.identification` — parameter identification from
  transient waveforms (centre selection + linear least squares + two-load
  weight extraction).
* :mod:`repro.macromodel.library` — ready-made synthetic 1.8 V CMOS device
  macromodels standing in for the commercial IBM parts of the paper.
* :mod:`repro.macromodel.serialization` — JSON round-tripping so that
  identified models can be stored and shared as component libraries.
"""

from repro.macromodel.base import DiscreteTimePortModel, PortKind
from repro.macromodel.rbf import GaussianRBFExpansion, RBFSubmodel
from repro.macromodel.regressor import RegressorSpec, build_regression_data
from repro.macromodel.driver import DriverMacromodel, SwitchingWeights, LogicStimulus
from repro.macromodel.receiver import LinearSubmodel, ReceiverMacromodel
from repro.macromodel.identification import (
    IdentificationResult,
    extract_switching_weights,
    fit_linear_submodel,
    fit_rbf_submodel,
)
from repro.macromodel.library import (
    DeviceLibrary,
    make_reference_driver_macromodel,
    make_reference_receiver_macromodel,
)
from repro.macromodel.serialization import (
    macromodel_from_dict,
    macromodel_to_dict,
    load_macromodel,
    save_macromodel,
)

__all__ = [
    "DiscreteTimePortModel",
    "PortKind",
    "GaussianRBFExpansion",
    "RBFSubmodel",
    "RegressorSpec",
    "build_regression_data",
    "DriverMacromodel",
    "SwitchingWeights",
    "LogicStimulus",
    "LinearSubmodel",
    "ReceiverMacromodel",
    "IdentificationResult",
    "extract_switching_weights",
    "fit_linear_submodel",
    "fit_rbf_submodel",
    "DeviceLibrary",
    "make_reference_driver_macromodel",
    "make_reference_receiver_macromodel",
    "macromodel_from_dict",
    "macromodel_to_dict",
    "load_macromodel",
    "save_macromodel",
]
