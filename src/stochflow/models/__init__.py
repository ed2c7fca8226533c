"""Flow models, each in its own module: ``linear``, ``em`` and ``nse``."""
