"""Shared Hypothesis configuration for the property tests."""
