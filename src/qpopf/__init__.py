"""Probabilistic optimal power flow with critical-region classification.

The pipeline: load a radial distribution case, linearize it into a
parametric LP whose right-hand side depends on renewable deviations,
enumerate the critical regions of that LP, train a (simulated, noisy)
variational quantum classifier to pick the active region, and audit the
differential privacy that depolarizing noise plus softmax sampling grant
to the released region index.

The package exports the names of the README's library example; every
other name is imported from its module (``qpopf.regions``,
``qpopf.privacy``, ...).
"""

from qpopf.grid import load_case, linearize
from qpopf.regions import enumerate_regions, locate_region
from qpopf.circuit import CircuitConfig
from qpopf.classifier import TrainConfig, VqcModel, train_vqc
from qpopf.privacy import AdjacencySpec, theoretical_epsilon

__version__ = "0.1.0"
