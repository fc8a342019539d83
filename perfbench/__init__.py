"""Benchmark of the Blobworld access-method system (see README.md)."""
