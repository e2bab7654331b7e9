"""qkinopt: quantum-search optimization of planar manipulator kinematics.

Simulates the full pipeline at desk scale: discretize manipulator parameters
into qubit registers, optionally train a parameterized-circuit surrogate of
the forward kinematics, build a diagonal cost oracle, amplify low-cost
configurations with Grover iterations, and verify the measured solution
against the analytical model. Classical optimizers run on the same
objectives for query-count comparison.
"""
