"""The repository benchmark (see ``bench/README.md``).

Everything here drives ``src/repro`` through its public API only; nothing
under ``src/`` knows this package exists.
"""
