"""Test oracles: the paper's algorithms transcribed as printed."""
