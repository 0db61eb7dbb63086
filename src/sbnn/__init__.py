"""Sparse binary neural networks: entropy-budgeted training, two-value
weight quantization with a closed-form fit, and an integer-only inference
engine (popcounts or shifted-plane sums) with exact operation accounting.
The submodules are the API: `from sbnn import engine, nn, train`."""
