"""Scenario benchmark for the T-REx user operations (see ``run.py``)."""
