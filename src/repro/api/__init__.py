"""The REST interface: JSON job documents in, JSON results out."""

from .serde import PlanDocumentError, build_quanta
from .service import RheemService

__all__ = ["PlanDocumentError", "build_quanta", "RheemService"]
