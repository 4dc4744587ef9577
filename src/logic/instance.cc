#include "logic/instance.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <set>

#include "base/string_util.h"
#include "logic/postings_kernels.h"

namespace omqc {

namespace {
const std::vector<AtomId>& EmptyIdVector() {
  static const std::vector<AtomId>* empty = new std::vector<AtomId>();
  return *empty;
}

const PredicatePostings& EmptyPostings() {
  static const PredicatePostings* empty = new PredicatePostings();
  return *empty;
}

/// Pipeline depth of the batched Add/Contains paths: hashes are computed
/// and dedup slots prefetched this many atoms ahead of the probe. Deep
/// enough to overlap a memory access, shallow enough that the hash ring
/// stays register/L1-resident.
constexpr size_t kProbePipeline = 8;
}  // namespace

std::optional<AtomId> Instance::ProbeHashed(AtomView v, size_t hash) const {
  if (slots_.empty()) return std::nullopt;
  const size_t mask = slots_.size() - 1;
  const uint16_t tag = TagOf(hash);
  size_t idx = hash & mask;
  while (slots_[idx] != kEmptySlot) {
    // The tag rejects nearly all non-matching chain entries without the
    // dependent record/pool loads behind view().
    if (slot_tags_[idx] == tag && view(slots_[idx]) == v) {
      return slots_[idx];
    }
    idx = (idx + 1) & mask;
  }
  return std::nullopt;
}

Instance::AddOutcome Instance::AddViewHashed(AtomView view, size_t hash) {
  assert(view.predicate().valid() && "Add of an atom with an invalid "
                                     "(default-constructed) predicate");
#ifndef NDEBUG
  for (const Term& t : view) {
    assert(t.valid() && "Add of an atom containing an invalid "
                        "(default-constructed) term");
  }
#endif
  assert(view.arity() <= 0xFF && "arena records store arity in one byte");
  // Grow the dedup table before probing so the insert path below always
  // has a free slot (load factor <= 1/2).
  if ((records_.size() + 1) * 2 > slots_.size()) {
    Rehash(slots_.empty() ? 16 : slots_.size() * 2);
  }
  const size_t mask = slots_.size() - 1;
  const uint16_t tag = TagOf(hash);
  size_t idx = hash & mask;
  while (slots_[idx] != kEmptySlot) {
    if (slot_tags_[idx] == tag && this->view(slots_[idx]) == view) {
      return {slots_[idx], false};
    }
    idx = (idx + 1) & mask;
  }
  const AtomId id = static_cast<AtomId>(records_.size());
  slots_[idx] = id;
  slot_tags_[idx] = tag;
  records_.push_back(AtomRecord{view.predicate(),
                                static_cast<uint32_t>(term_pool_.size()),
                                static_cast<uint8_t>(view.arity())});
  term_pool_.insert(term_pool_.end(), view.begin(), view.end());
  PredicatePostings& postings = by_predicate_[view.predicate().id()];
  if (postings.ids.empty()) {
    postings.uniform_arity = static_cast<uint32_t>(view.arity());
  } else if (postings.uniform_arity != view.arity()) {
    postings.uniform_arity = PredicatePostings::kMixedArity;
  }
  postings.ids.push_back(id);
  postings.begins.push_back(static_cast<uint32_t>(postings.terms.size()));
  postings.terms.insert(postings.terms.end(), view.begin(), view.end());
  for (size_t i = 0; i < view.arity(); ++i) {
    by_arg_[ArgKey{view.predicate().id(), static_cast<int>(i), view.arg(i)}]
        .push_back(id);
  }
  return {id, true};
}

Instance::AddOutcome Instance::AddView(AtomView view) {
  return AddViewHashed(view, view.hash());
}

void Instance::Rehash(size_t new_size) {
  slots_.assign(new_size, kEmptySlot);
  slot_tags_.assign(new_size, 0);
  const size_t mask = new_size - 1;
  for (AtomId id = 0; id < records_.size(); ++id) {
    const size_t hash = view(id).hash();
    size_t idx = hash & mask;
    while (slots_[idx] != kEmptySlot) idx = (idx + 1) & mask;
    slots_[idx] = id;
    slot_tags_[idx] = TagOf(hash);
  }
}

std::optional<AtomId> Instance::FindId(AtomView v) const {
  return ProbeHashed(v, v.hash());
}

size_t Instance::AddBatch(const std::vector<Atom>& atoms) {
  size_t hashes[kProbePipeline];
  const size_t n = atoms.size();
  const size_t lead = std::min(n, kProbePipeline);
  for (size_t i = 0; i < lead; ++i) {
    hashes[i] = ViewOf(atoms[i]).hash();
    PrefetchSlot(hashes[i]);
  }
  size_t inserted = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i + kProbePipeline < n) {
      const size_t h = ViewOf(atoms[i + kProbePipeline]).hash();
      hashes[(i + kProbePipeline) % kProbePipeline] = h;
      PrefetchSlot(h);
    }
    if (AddViewHashed(ViewOf(atoms[i]), hashes[i % kProbePipeline])
            .inserted) {
      ++inserted;
    }
  }
  return inserted;
}

const std::vector<AtomId>& Instance::IdsWith(Predicate p) const {
  auto it = by_predicate_.find(p.id());
  return it == by_predicate_.end() ? EmptyIdVector() : it->second.ids;
}

PostingsSpan Instance::Postings(Predicate p) const {
  auto it = by_predicate_.find(p.id());
  return PostingsSpan(p,
                      it == by_predicate_.end() ? &EmptyPostings()
                                                : &it->second);
}

const std::vector<AtomId>& Instance::IdsWithArg(Predicate p, int position,
                                                const Term& t) const {
  auto it = by_arg_.find(ArgKey{p.id(), position, t});
  return it == by_arg_.end() ? EmptyIdVector() : it->second;
}

std::pair<const AtomId*, const AtomId*> Instance::ArgIdRange(
    Predicate p, int position, const Term& t, AtomId lo, AtomId hi) const {
  return PostingsIdRange(IdsWithArg(p, position, t), lo, hi);
}

std::vector<Term> Instance::ActiveDomain() const {
  // The term pool is exactly the multiset of all argument occurrences.
  std::set<Term> seen(term_pool_.begin(), term_pool_.end());
  return std::vector<Term>(seen.begin(), seen.end());
}

std::vector<Term> Instance::ActiveDomainConstants() const {
  std::set<Term> seen;
  for (const Term& t : term_pool_) {
    if (t.IsConstant()) seen.insert(t);
  }
  return std::vector<Term>(seen.begin(), seen.end());
}

Schema Instance::InducedSchema() const {
  Schema schema;
  for (const auto& [pred_id, postings] : by_predicate_) {
    if (!postings.ids.empty()) {
      schema.Add(records_[postings.ids.front()].predicate);
    }
  }
  return schema;
}

bool Instance::IsDatabase() const {
  for (const Term& t : term_pool_) {
    if (!t.IsConstant()) return false;
  }
  return true;
}

std::vector<Instance> Instance::ConnectedComponents() const {
  // Union-find over terms; 0-ary atoms are excluded (paper footnote 5).
  std::map<Term, Term> parent;
  std::function<Term(Term)> find = [&](Term t) {
    Term root = t;
    while (parent.at(root) != root) root = parent.at(root);
    while (parent.at(t) != root) {
      Term next = parent.at(t);
      parent[t] = root;
      t = next;
    }
    return root;
  };
  for (const Term& t : term_pool_) parent.emplace(t, t);
  for (AtomId id = 0; id < records_.size(); ++id) {
    AtomView a = view(id);
    if (a.arity() == 0) continue;
    Term first = find(a.arg(0));
    for (const Term& t : a) {
      parent[find(t)] = first;
    }
  }
  std::map<Term, Instance> components;
  for (AtomId id = 0; id < records_.size(); ++id) {
    AtomView a = view(id);
    if (a.arity() == 0) continue;
    components[find(a.arg(0))].AddView(a);
  }
  std::vector<Instance> out;
  out.reserve(components.size());
  for (auto& [root, inst] : components) out.push_back(std::move(inst));
  return out;
}

Database PrettifiedCopy(const Database& db, const std::string& prefix) {
  const std::vector<Term> used = db.ActiveDomainConstants();  // sorted
  std::map<Term, Term> rename;
  int counter = 0;
  Database out;
  for (AtomId id = 0; id < db.size(); ++id) {
    Atom copy = db.MaterializeAtom(id);
    for (Term& t : copy.args) {
      if (!t.IsConstant() || t.ToString().rfind('@', 0) != 0) continue;
      auto it = rename.find(t);
      if (it == rename.end()) {
        Term fresh;
        do {
          fresh = Term::Constant(prefix + std::to_string(counter++));
        } while (std::binary_search(used.begin(), used.end(), fresh));
        it = rename.emplace(t, fresh).first;
      }
      t = it->second;
    }
    out.Add(copy);
  }
  return out;
}

std::string Instance::ToString() const {
  std::vector<std::string> lines;
  lines.reserve(records_.size());
  for (AtomId id = 0; id < records_.size(); ++id) {
    lines.push_back(MaterializeAtom(id).ToString() + ".");
  }
  std::sort(lines.begin(), lines.end());
  return JoinStrings(lines, "\n");
}

}  // namespace omqc
