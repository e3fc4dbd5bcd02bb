#include "core/protocol.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "relation/wire.h"
#include "util/string_util.h"

namespace codb {

namespace {

void WriteFlowId(WireWriter& writer, const FlowId& id) {
  writer.WriteU8(static_cast<uint8_t>(id.scope));
  writer.WriteU32(id.origin);
  writer.WriteU64(id.seq);
}

Result<FlowId> ReadFlowId(WireReader& reader) {
  FlowId id;
  CODB_ASSIGN_OR_RETURN(uint8_t scope, reader.ReadU8());
  if (scope > 1) {
    return Status::ParseError("bad flow scope " + std::to_string(scope));
  }
  id.scope = static_cast<FlowId::Scope>(scope);
  CODB_ASSIGN_OR_RETURN(id.origin, reader.ReadU32());
  CODB_ASSIGN_OR_RETURN(id.seq, reader.ReadU64());
  return id;
}

}  // namespace

std::string FlowId::ToString() const {
  return StrFormat("%s/%u.%llu",
                   scope == Scope::kUpdate ? "update" : "query", origin,
                   static_cast<unsigned long long>(seq));
}

void WriteHeadTuples(WireWriter& writer,
                     const std::vector<HeadTuple>& tuples) {
  // A run stops where the relation or the arity changes. The payload
  // starts with the run count, so the runs are found before any is written.
  struct Run {
    size_t first_row;
    uint64_t rows;
  };
  std::vector<Run> runs;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i == 0 || tuples[i].relation != tuples[i - 1].relation ||
        tuples[i].tuple.arity() != tuples[i - 1].tuple.arity()) {
      runs.push_back({i, 0});
    }
    ++runs.back().rows;
  }
  writer.WriteVarU64(runs.size());
  for (const Run& run : runs) {
    const HeadTuple& first = tuples[run.first_row];
    writer.WriteVarString(first.relation);
    writer.WriteVarU64(static_cast<uint64_t>(first.tuple.arity()));
    writer.WriteVarU64(run.rows);
    for (size_t i = run.first_row; i < run.first_row + run.rows; ++i) {
      for (const Value& v : tuples[i].tuple) writer.WriteVarValue(v);
    }
  }
}

Result<std::vector<HeadTuple>> ReadHeadTuples(WireReader& reader) {
  // A run header is at least a name length, an arity and a row count.
  CODB_ASSIGN_OR_RETURN(uint32_t runs, reader.ReadVarCount(3));
  std::vector<HeadTuple> tuples;
  std::vector<Value> values;
  for (uint32_t r = 0; r < runs; ++r) {
    CODB_ASSIGN_OR_RETURN(std::string_view name, reader.ReadVarBytes());
    // Every row decodes to a copy of the name, which is sent once per run:
    // only a bounded name keeps the decoded size linear in the input.
    if (name.size() > RelationSchema::kMaxNameBytes) {
      return Status::ParseError("head tuples: relation name of " +
                                std::to_string(name.size()) + " bytes");
    }
    CODB_ASSIGN_OR_RETURN(uint64_t arity, reader.ReadVarU64());
    // Relations have at least one attribute; an arity-0 run would be rows
    // that cost no bytes, so its count could not be capped by the input.
    if (arity == 0 || arity > UINT16_MAX) {
      return Status::ParseError("head tuples: arity " +
                                std::to_string(arity) + " out of range");
    }
    // Each value is at least a tag and a one-byte body.
    CODB_ASSIGN_OR_RETURN(uint32_t rows, reader.ReadVarCount(2 * arity));
    if (tuples.capacity() - tuples.size() < rows) {
      tuples.reserve(std::max(tuples.size() + rows, 2 * tuples.capacity()));
    }
    const std::string relation(name);
    values.resize(arity);
    for (uint32_t row = 0; row < rows; ++row) {
      for (Value& v : values) {
        CODB_ASSIGN_OR_RETURN(v, reader.ReadVarValue());
      }
      tuples.push_back({relation, Tuple(values.data(), values.size())});
    }
  }
  return tuples;
}

void GroupRunsByRelation(std::vector<HeadTuple>& rows) {
  // Relations in the order of their first row, each with its row count;
  // a batch comes from one rule head, so a linear search is enough.
  std::vector<std::pair<const std::string*, size_t>> groups;
  std::vector<uint32_t> group_of(rows.size());
  size_t runs = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && rows[i].relation == rows[i - 1].relation) {
      group_of[i] = group_of[i - 1];
    } else {
      ++runs;
      size_t g = 0;
      while (g < groups.size() && *groups[g].first != rows[i].relation) ++g;
      if (g == groups.size()) groups.push_back({&rows[i].relation, 0});
      group_of[i] = static_cast<uint32_t>(g);
    }
    ++groups[group_of[i]].second;
  }
  if (runs == groups.size()) return;  // already one run per relation

  std::vector<size_t> next(groups.size(), 0);
  for (size_t g = 1; g < groups.size(); ++g) {
    next[g] = next[g - 1] + groups[g - 1].second;
  }
  std::vector<HeadTuple> grouped(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    grouped[next[group_of[i]]++] = std::move(rows[i]);
  }
  rows.swap(grouped);
}

Result<FlowId> PeekFlowId(const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  return ReadFlowId(reader);
}

Message MakeMessage(PeerId src, PeerId dst, MessageType type,
                    std::vector<uint8_t> payload) {
  Message message;
  message.src = src;
  message.dst = dst;
  message.type = type;
  message.payload = std::move(payload);
  return message;
}

// -- UpdateRequestPayload -----------------------------------------------------

std::vector<uint8_t> UpdateRequestPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, update);
  writer.WriteU8(refresh ? 1 : 0);
  writer.WriteU8(incremental ? 1 : 0);
  return writer.Take();
}

Result<UpdateRequestPayload> UpdateRequestPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  UpdateRequestPayload out;
  CODB_ASSIGN_OR_RETURN(out.update, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(uint8_t refresh, reader.ReadU8());
  out.refresh = refresh != 0;
  CODB_ASSIGN_OR_RETURN(uint8_t incremental, reader.ReadU8());
  out.incremental = incremental != 0;
  return out;
}

// -- UpdateDataPayload --------------------------------------------------------

std::vector<uint8_t> UpdateDataPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, update);
  writer.WriteString(rule_id);
  writer.WriteU32List(path);
  WriteHeadTuples(writer, tuples);
  return writer.Take();
}

Result<UpdateDataPayload> UpdateDataPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  UpdateDataPayload out;
  CODB_ASSIGN_OR_RETURN(out.update, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(out.rule_id, reader.ReadString());
  CODB_ASSIGN_OR_RETURN(out.path, reader.ReadU32List());
  CODB_ASSIGN_OR_RETURN(out.tuples, ReadHeadTuples(reader));
  return out;
}

// -- LinkClosedPayload --------------------------------------------------------

std::vector<uint8_t> LinkClosedPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, update);
  writer.WriteString(rule_id);
  return writer.Take();
}

Result<LinkClosedPayload> LinkClosedPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  LinkClosedPayload out;
  CODB_ASSIGN_OR_RETURN(out.update, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(out.rule_id, reader.ReadString());
  return out;
}

// -- AckPayload ---------------------------------------------------------------

std::vector<uint8_t> AckPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, flow);
  return writer.Take();
}

Result<AckPayload> AckPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  AckPayload out;
  CODB_ASSIGN_OR_RETURN(out.flow, ReadFlowId(reader));
  return out;
}

// -- DeliveryAckPayload -------------------------------------------------------

std::vector<uint8_t> DeliveryAckPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, flow);
  writer.WriteU32(acked_seq);
  return writer.Take();
}

Result<DeliveryAckPayload> DeliveryAckPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  DeliveryAckPayload out;
  CODB_ASSIGN_OR_RETURN(out.flow, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(out.acked_seq, reader.ReadU32());
  return out;
}

// -- UpdateCompletePayload ----------------------------------------------------

std::vector<uint8_t> UpdateCompletePayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, update);
  return writer.Take();
}

Result<UpdateCompletePayload> UpdateCompletePayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  UpdateCompletePayload out;
  CODB_ASSIGN_OR_RETURN(out.update, ReadFlowId(reader));
  return out;
}

// -- QueryRequestPayload ------------------------------------------------------

std::vector<uint8_t> QueryRequestPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, query);
  writer.WriteString(rule_id);
  writer.WriteU32List(label);
  return writer.Take();
}

Result<QueryRequestPayload> QueryRequestPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  QueryRequestPayload out;
  CODB_ASSIGN_OR_RETURN(out.query, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(out.rule_id, reader.ReadString());
  CODB_ASSIGN_OR_RETURN(out.label, reader.ReadU32List());
  return out;
}

// -- QueryResultPayload -------------------------------------------------------

std::vector<uint8_t> QueryResultPayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, query);
  writer.WriteString(rule_id);
  WriteHeadTuples(writer, tuples);
  return writer.Take();
}

Result<QueryResultPayload> QueryResultPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  QueryResultPayload out;
  CODB_ASSIGN_OR_RETURN(out.query, ReadFlowId(reader));
  CODB_ASSIGN_OR_RETURN(out.rule_id, reader.ReadString());
  CODB_ASSIGN_OR_RETURN(out.tuples, ReadHeadTuples(reader));
  return out;
}

// -- QueryDonePayload ---------------------------------------------------------

std::vector<uint8_t> QueryDonePayload::Serialize() const {
  WireWriter writer;
  WriteFlowId(writer, query);
  return writer.Take();
}

Result<QueryDonePayload> QueryDonePayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  QueryDonePayload out;
  CODB_ASSIGN_OR_RETURN(out.query, ReadFlowId(reader));
  return out;
}

// -- StatsRequestPayload ------------------------------------------------------

std::vector<uint8_t> StatsRequestPayload::Serialize() const {
  WireWriter writer;
  writer.WriteU64(request_id);
  return writer.Take();
}

Result<StatsRequestPayload> StatsRequestPayload::Deserialize(
    const std::vector<uint8_t>& payload) {
  WireReader reader(payload);
  StatsRequestPayload out;
  CODB_ASSIGN_OR_RETURN(out.request_id, reader.ReadU64());
  return out;
}

}  // namespace codb
