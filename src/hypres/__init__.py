"""hypres: multichannel quantum resonance extraction.

Solves the coupled-channel scattering problem in the adiabatic
hyperspherical expansion, samples the reaction matrix near a resonance with
the stabilization method, and fits it with a generalized Breit-Wigner pole
form that accounts for background inelastic scattering.
"""

__version__ = "0.1.0"
