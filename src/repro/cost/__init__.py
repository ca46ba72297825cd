"""Cost models: pay-as-you-use billing, consistency compensation, SLA penalties."""

from .billing import BillingModel
from .compensation import CompensationModel, CompensationRates
from .report import CostAccountant, CostReport

__all__ = [
    "BillingModel",
    "CompensationModel",
    "CompensationRates",
    "CostAccountant",
    "CostReport",
]
