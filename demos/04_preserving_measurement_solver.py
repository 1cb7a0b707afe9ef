# %% [markdown]
# # Solving for orthogonality-preserving measurements
#
# The discrimination analysis of a set hinges on which local projective
# measurements keep all states mutually orthogonal. The solver finds all
# rank-1 preserving directions exactly: it case-splits on the support
# pattern of the direction, propagates linear consequences, branches when
# a constraint factors, and closes two-parameter patterns with an exact
# binary-quadratic endgame. Nonexistence comes with an exact-case-split
# certificate.

# %%
from lpcckit.opsolve import rank1_op_directions
from lpcckit.statesets import build_named_set

s2 = build_named_set("S2")
for party, who in ((0, "first party"), (1, "second party"), (2, "third party")):
    rep = rank1_op_directions(s2, (party,))
    if rep.is_none_found:
        print(f"{who}: none found ({rep.none_found['method']},",
              f"{rep.none_found['patterns']} patterns examined)")
    else:
        print(f"{who}: directions",
              [tuple(str(x) for x in d.entries) for d in rep.nontrivial_directions()])

# %% [markdown]
# Complete PVMs assemble from the discovered projector pool; for the
# TYPE-II family's third party that is one all-rank-1 measurement plus
# the three rank-1 + rank-2 combinations, exactly the published case
# analysis.

# %%
from lpcckit.opsolve import enumerate_op_pvms

for lp in enumerate_op_pvms(s2, (2,), max_outcomes=3):
    print("PVM with element ranks", [e.rank() for e in lp.pvm.elements])

# %% [markdown]
# Diagonal (computational-subset) projectors join the pool too; on the
# merged last-two-parties group of the TYPE-II family they reveal the
# joint measurement that drives its activation.

# %%
from lpcckit.opsolve import diagonal_op_subsets

print("preserving diagonal subsets on the joint group:",
      diagonal_op_subsets(s2, (1, 2)))

# %% [markdown]
# Irreducibility certificates: a set with no nontrivial-for-the-set
# preserving PVM on any block cannot lose a state, which certifies local
# indistinguishability. The nine-state nonlocal basis is the canonical
# example; the TYPE-II family is reducible via its third party.

# %%
from lpcckit.opsolve import is_pvm_irreducible
from lpcckit.statesets import Partition

dom = build_named_set("Domino")
v = is_pvm_irreducible(dom, Partition(((0,), (1,))))
print("nonlocal basis:", v.status, dict(v.block_levels))
v2 = is_pvm_irreducible(s2, Partition.trivial(3))
print("TYPE-II family:", v2.status, "witness on group", v2.witness.group)
