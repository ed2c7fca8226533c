"""Flow models, each in its own module: ``linear`` and ``nse``."""
