"""Desk-scale training lab: a shared encoder that forgets and recovers."""
