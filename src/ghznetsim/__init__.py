"""Monte Carlo simulation of GHZ-state distribution over noisy quantum networks."""

__version__ = "0.1.0"
