"""Skeletal G-crossed braided tensor categories: data, consistency
equations, twisting by cocycles, obstructions, and equivalences.  The
package imports none of its modules: import each name from its module."""

__version__ = "0.1.0"
