"""One module per group of experiment kinds that share their imports.

Each module's top-level imports are its kinds' only dependencies, and
``cli._resolve`` imports a kind's module once the key table accepts its
config, so a process loads only the layers its run uses.
"""
