"""Melnikov analysis of the periodically forced damped pendulum."""

__version__ = "0.1.0"
