"""Deterministic discrete-event MANET simulator.

AODV reactive routing plus two optional extensions: per-packet random-value
channel tagging with receiver-side verification (SAODV), and a link-lifetime
admission filter that keeps fast-moving relays out of discovered routes.
Includes a resource-exhaustion attacker model, linear energy accounting,
12-field trace emission, and a metrics/analysis CLI.
"""
