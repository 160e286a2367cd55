#include "recovery/provenance.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "common/json.h"
#include "storage/attribution.h"

namespace cwdb {

const char* ProvenanceReasonName(ProvenanceReason r) {
  switch (r) {
    case ProvenanceReason::kReadCorruptRange: return "read_corrupt_range";
    case ProvenanceReason::kWroteCorruptRange: return "wrote_corrupt_range";
    case ProvenanceReason::kChecksumMismatch: return "checksum_mismatch";
    case ProvenanceReason::kConflictWithUndo: return "conflict_with_undo";
    case ProvenanceReason::kCommittedAfterLimit:
      return "committed_after_limit";
  }
  return "unknown";
}

const ProvenanceEdge* ProvenanceGraph::EdgeFor(TxnId txn) const {
  for (const ProvenanceEdge& e : edges) {
    if (e.txn == txn) return &e;
  }
  return nullptr;
}

std::vector<const ProvenanceEdge*> ProvenanceGraph::PathFor(TxnId txn) const {
  std::vector<const ProvenanceEdge*> path;
  std::set<TxnId> seen;
  const ProvenanceEdge* e = EdgeFor(txn);
  while (e != nullptr && seen.insert(e->txn).second) {
    path.push_back(e);
    if (e->from_txn == 0) break;
    e = EdgeFor(e->from_txn);
  }
  return path;
}

std::string ProvenanceGraph::ToJson(const DbImage* image) const {
  std::string out = "{\n";
  Appendf(&out, "  \"incident_id\": %" PRIu64 ",\n", incident_id);
  Appendf(&out, "  \"last_clean_audit_lsn\": %" PRIu64 ",\n",
          last_clean_audit_lsn);
  out += "  \"roots\": [";
  bool first = true;
  for (const CorruptRange& r : roots) {
    if (!first) out.push_back(',');
    first = false;
    Appendf(&out, "\n    {\"off\": %" PRIu64 ", \"len\": %" PRIu64, r.off,
            r.len);
    if (image != nullptr) {
      out += ", \"attribution\": [";
      bool afirst = true;
      for (const RangeAttribution& a : AttributeRange(*image, r.off, r.len)) {
        if (!afirst) out.push_back(',');
        afirst = false;
        Appendf(&out,
                "{\"kind\": \"%s\", \"page_first\": %" PRIu64
                ", \"page_last\": %" PRIu64,
                ImageAreaKindName(a.kind), a.page_first, a.page_last);
        if (a.kind == ImageAreaKind::kRecordData ||
            a.kind == ImageAreaKind::kBitmap) {
          Appendf(&out, ", \"table\": %u, \"table_name\": ",
                  static_cast<unsigned>(a.table));
          out += JsonQuote(a.table_name);
        }
        if (a.kind == ImageAreaKind::kRecordData &&
            a.first_slot != kInvalidSlot) {
          Appendf(&out, ", \"first_slot\": %u, \"last_slot\": %u",
                  a.first_slot, a.last_slot);
        }
        out.push_back('}');
      }
      out.push_back(']');
    }
    out.push_back('}');
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"edges\": [";
  first = true;
  for (const ProvenanceEdge& e : edges) {
    if (!first) out.push_back(',');
    first = false;
    Appendf(&out,
            "\n    {\"txn\": %" PRIu64 ", \"reason\": \"%s\", \"at_lsn\": %"
            PRIu64 ", \"via_off\": %" PRIu64 ", \"via_len\": %" PRIu64
            ", \"from_txn\": %" PRIu64 "}",
            e.txn, ProvenanceReasonName(e.reason), e.at_lsn, e.via.off,
            e.via.len, e.from_txn);
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string ProvenanceGraph::ToDot() const {
  std::string out = "digraph recovery_provenance {\n  rankdir=LR;\n";
  Appendf(&out, "  label=\"incident %" PRIu64 " — delete-transaction "
          "implication chain\";\n", incident_id);
  std::set<uint64_t> root_nodes;
  for (size_t i = 0; i < roots.size(); ++i) {
    Appendf(&out,
            "  range%zu [shape=box, style=filled, fillcolor=\"#f4cccc\", "
            "label=\"corrupt bytes\\n[%" PRIu64 ",+%" PRIu64 ")\"];\n",
            i, roots[i].off, roots[i].len);
  }
  for (const ProvenanceEdge& e : edges) {
    Appendf(&out, "  txn%" PRIu64 " [label=\"txn %" PRIu64 "\"];\n", e.txn,
            e.txn);
  }
  auto overlapping_root = [&](const CorruptRange& via) -> int {
    for (size_t i = 0; i < roots.size(); ++i) {
      if (via.off < roots[i].off + roots[i].len &&
          roots[i].off < via.off + via.len) {
        return static_cast<int>(i);
      }
    }
    return roots.empty() ? -1 : 0;
  };
  for (const ProvenanceEdge& e : edges) {
    if (e.from_txn != 0) {
      Appendf(&out,
              "  txn%" PRIu64 " -> txn%" PRIu64 " [label=\"%s @%" PRIu64
              "\"];\n",
              e.from_txn, e.txn, ProvenanceReasonName(e.reason), e.at_lsn);
    } else if (e.reason == ProvenanceReason::kCommittedAfterLimit) {
      Appendf(&out,
              "  limit [shape=box, label=\"redo limit\"];\n  limit -> txn%"
              PRIu64 " [label=\"%s\"];\n",
              e.txn, ProvenanceReasonName(e.reason));
    } else {
      int root = overlapping_root(e.via);
      if (root >= 0) {
        Appendf(&out,
                "  range%d -> txn%" PRIu64 " [label=\"%s @%" PRIu64 "\"];\n",
                root, e.txn, ProvenanceReasonName(e.reason), e.at_lsn);
      }
    }
  }
  out += "}\n";
  return out;
}

}  // namespace cwdb
