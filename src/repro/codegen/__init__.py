"""Placeholder package for :mod:`repro.codegen.cache` (see there)."""
