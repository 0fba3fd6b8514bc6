"""locstat: simulation and localized moment inference for time-varying
Levy-driven state space models."""

__version__ = "0.1.0"
__all__ = ["backend_name", "__version__"]


def backend_name() -> str:
    """Name of the scan kernel in use; there is one, the numpy kernel."""
    # kept because perfbench/run.py writes it into its record line
    return "numpy"
