"""sourcescope: detection and analysis of social-media source citations in news text."""

__version__ = "0.1.0"
