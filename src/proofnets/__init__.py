"""Proof-structures for multiplicative linear logic with units.

The package covers the full pipeline: building and validating structures,
switching-based correctness criteria, cut elimination, desequentialization
of sequent proofs, sequentialization (plain, canonical-jump refined for the
bottom-restricted fragment, and for the constant-only intuitionistic
fragment), and the induced equivalence decisions.
"""

from .formulas import (Formula, Fragment, atom, format_formula, format_formulas,
                       in_fragment, in_fragments, negate, par, parse_formula,
                       parse_formulas, polarity, tensor)
from .structure import (ProofStructure, ValidationReport, erasing_nodes,
                        from_dsl, from_json, is_wten, jump_free, jump_total,
                        load_structure, strip, to_dsl, to_json, validate)
from .canonical import CanonicalForm, canonical_form, iso, iso_untyped, isomorphisms
from .switching import CriterionVerdict, check, switching_graph
from .cutelim import (Redex, ReductionTrace, find_redexes, normalize,
                      reduce_step, replay)
from .sequent import (DeseqResult, SequentProof, ax_rule, bot_rule, check_proof,
                      cut_rule, desequentialize, desequentialize_text, ex_rule,
                      exchange_to, format_proof, one_rule, par_rule, parse_proof,
                      tensor_rule)
from .sequentialize import (SplitAssignment, canonical_jumps_btenll,
                            canonical_jumps_icomll, infer_types, jump_correct,
                            proofs_equivalent, rewiring_equivalent,
                            sequentialize_btenll, sequentialize_icomll,
                            sequentialize_text, sequentialize_wten, split_parts)
from .generate import GenParams, random_formula, random_proof, random_ps
from .render import export_dot

__version__ = "0.1.0"
