"""Pairwise dependent geometric stick-breaking reconstruction of random maps."""

__version__ = "0.1.0"
