// Unit tests for wire serialization: round trips and robustness against
// truncated or corrupt payloads.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "core/protocol.h"
#include "core/statistics.h"
#include "core/super_peer.h"
#include "membership/heartbeat.h"
#include "query/parser.h"
#include "relation/database.h"
#include "relation/wal.h"
#include "relation/wire.h"
#include "workload/topology_gen.h"

namespace codb {
namespace {

// An interleaved d,e,e,d batch whose values cover the extremes of every
// run-value body: it encodes as three runs.
std::vector<HeadTuple> InterleavedBatch() {
  return {
      {"d", Tuple{Value::Int(std::numeric_limits<int64_t>::min()),
                  Value::Int(-1)}},
      {"e", Tuple{Value::Int(std::numeric_limits<int64_t>::max()),
                  Value::Double(1.5)}},
      {"e", Tuple{Value::String("ab"), Value::Null(3, uint64_t{1} << 40)}},
      {"d", Tuple{Value::Int(0), Value::Int(300)}},
  };
}

std::vector<uint8_t> EncodeHeadTuples(const std::vector<HeadTuple>& rows) {
  WireWriter writer;
  WriteHeadTuples(writer, rows);
  return writer.Take();
}

Status DecodeHeadTuples(const std::vector<uint8_t>& bytes) {
  WireReader reader(bytes);
  return ReadHeadTuples(reader).status();
}

TEST(WireTest, PrimitiveRoundTrips) {
  WireWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU16(0xBEEF);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFULL);
  writer.WriteI64(-42);
  writer.WriteDouble(3.14159);
  writer.WriteString("hello");
  std::vector<uint8_t> bytes = writer.Take();

  WireReader reader(bytes);
  EXPECT_EQ(reader.ReadU8().value(), 0xAB);
  EXPECT_EQ(reader.ReadU16().value(), 0xBEEF);
  EXPECT_EQ(reader.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(reader.ReadDouble().value(), 3.14159);
  EXPECT_EQ(reader.ReadString().value(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, ValueRoundTripsAllKinds) {
  const Value values[] = {
      Value::Int(-7),
      Value::Double(2.5),
      Value::String("text with spaces"),
      Value::String(""),
      Value::Null(3, 99),
  };
  for (const Value& v : values) {
    WireWriter writer;
    writer.WriteValue(v);
    std::vector<uint8_t> bytes = writer.Take();
    EXPECT_EQ(bytes.size(), v.WireSize());

    WireReader reader(bytes);
    Result<Value> back = reader.ReadValue();
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), v);
  }
}

TEST(WireTest, TupleBatchRoundTrip) {
  std::vector<Tuple> tuples = {
      Tuple{Value::Int(1), Value::String("a")},
      Tuple{Value::Null(2, 3), Value::Double(0.5)},
      Tuple{},
  };
  WireWriter writer;
  writer.WriteTuples(tuples);
  std::vector<uint8_t> bytes = writer.Take();

  WireReader reader(bytes);
  Result<std::vector<Tuple>> back = reader.ReadTuples();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), tuples);
}

TEST(WireTest, GoldenBytesAreStable) {
  // Pins the exact wire encoding of every value kind. In-memory
  // representation changes (e.g. string interning) must translate at this
  // boundary: the bytes below are the cross-version and cross-peer
  // contract.
  WireWriter writer;
  writer.WriteTuple(Tuple{Value::Int(7), Value::Double(1.5),
                          Value::String("ab"), Value::Null(3, 9)});
  const std::vector<uint8_t> expected = {
      0x04, 0x00,                                   // arity = 4
      0x00, 0x07, 0, 0, 0, 0, 0, 0, 0,              // int 7, little-endian
      0x01, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F,           // double 1.5
      0x02, 0x02, 0x00, 0x00, 0x00, 'a', 'b',       // string "ab"
      0x03, 0x03, 0, 0, 0, 0x09, 0, 0, 0, 0, 0, 0, 0,  // null #3:9
  };
  EXPECT_EQ(writer.Take(), expected);
}

TEST(WireTest, HeadTupleRunsGoldenBytes) {
  // Pins the run encoding of UpdateData/QueryResult row batches; the rows
  // decode back in their input order.
  const std::vector<uint8_t> expected = {
      0x03,                                     // 3 runs
      0x01, 'd', 0x02, 0x01,                    // d, arity 2, 1 row
      0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,       // int INT64_MIN (zigzag)
      0xFF, 0xFF, 0xFF, 0xFF, 0x01,             //
      0x00, 0x01,                               // int -1
      0x01, 'e', 0x02, 0x02,                    // e, arity 2, 2 rows
      0x00, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF,       // int INT64_MAX
      0xFF, 0xFF, 0xFF, 0xFF, 0x01,             //
      0x01, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F,       // double 1.5
      0x02, 0x02, 'a', 'b',                     // string "ab"
      0x03, 0x03, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20,  // null #3:2^40
      0x01, 'd', 0x02, 0x01,                    // d, arity 2, 1 row
      0x00, 0x00,                               // int 0
      0x00, 0xD8, 0x04,                         // int 300
  };
  const std::vector<HeadTuple> rows = InterleavedBatch();
  const std::vector<uint8_t> bytes = EncodeHeadTuples(rows);
  EXPECT_EQ(bytes, expected);
  WireReader reader(bytes);
  Result<std::vector<HeadTuple>> back = ReadHeadTuples(reader);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), rows);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, TruncatedInputReportsParseError) {
  WireWriter writer;
  writer.WriteString("hello");
  std::vector<uint8_t> bytes = writer.Take();
  // Chop off the tail; every prefix must fail cleanly, never crash.
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<uint8_t> prefix(bytes.begin(),
                                bytes.begin() + static_cast<long>(keep));
    WireReader reader(prefix);
    Result<std::string> s = reader.ReadString();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), StatusCode::kParseError);
  }
  // Every strict prefix of a two-run head-tuple payload fails too.
  const std::vector<uint8_t> runs = EncodeHeadTuples(
      {{"d", Tuple{Value::Int(12345), Value::String("xy")}},
       {"e", Tuple{Value::Null(1, 2), Value::Double(0.25)}}});
  for (size_t keep = 0; keep < runs.size(); ++keep) {
    std::vector<uint8_t> prefix(runs.begin(),
                                runs.begin() + static_cast<long>(keep));
    EXPECT_EQ(DecodeHeadTuples(prefix).code(), StatusCode::kParseError)
        << "prefix of " << keep << " bytes";
  }
  EXPECT_TRUE(DecodeHeadTuples(runs).ok());
}

TEST(WireTest, CorruptValueTagRejected) {
  std::vector<uint8_t> bytes = {0x77};  // no such type tag
  WireReader reader(bytes);
  Result<Value> v = reader.ReadValue();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);

  // Varints: an 11-byte 0x80... run, and a 10-byte one past 64 bits.
  std::vector<uint8_t> too_long(10, 0x80);
  too_long.push_back(0x00);
  std::vector<uint8_t> overflow(9, 0xFF);
  overflow.push_back(0x02);
  for (const std::vector<uint8_t>& varint : {too_long, overflow}) {
    WireReader varint_reader(varint);
    EXPECT_EQ(varint_reader.ReadVarU64().status().code(),
              StatusCode::kParseError);
  }
  // The same 11 bytes as a run count.
  EXPECT_EQ(DecodeHeadTuples(too_long).code(), StatusCode::kParseError);
  // One run of one d(int) row whose value carries no such tag.
  EXPECT_EQ(DecodeHeadTuples({0x01, 0x01, 'd', 0x01, 0x01, 0x77, 0x00}).code(),
            StatusCode::kParseError);
}

// `prefix` followed by a 5-byte tail whose element count claims 2^31
// entries: a decoder that trusted the count would reserve gigabytes.
std::vector<uint8_t> ForgedCount(std::vector<uint8_t> prefix = {}) {
  WireWriter writer;
  writer.WriteU32(1u << 31);
  writer.WriteU8(0);
  std::vector<uint8_t> tail = writer.Take();
  prefix.insert(prefix.end(), tail.begin(), tail.end());
  return prefix;
}

TEST(WireTest, ForgedElementCountsAreRejected) {
  const std::vector<uint8_t> bytes = ForgedCount();
  ASSERT_EQ(bytes.size(), 5u);
  {
    WireReader reader(bytes);
    EXPECT_EQ(reader.ReadTuples().status().code(), StatusCode::kParseError);
  }
  {
    WireReader reader(bytes);
    EXPECT_EQ(reader.ReadStringList().status().code(),
              StatusCode::kParseError);
  }
  {
    WireReader reader(bytes);
    EXPECT_EQ(reader.ReadU32List().status().code(), StatusCode::kParseError);
  }
  EXPECT_FALSE(StatisticsModule::DeserializeBundle(bytes).ok());
  EXPECT_FALSE(WriteAheadLog::Deserialize(bytes).ok());

  // Decoders whose count follows fixed fields get those fields first.
  WireWriter beacon;
  beacon.WriteU64(1);  // incarnation
  beacon.WriteU64(2);  // seq
  beacon.WriteI64(3);  // send time
  EXPECT_FALSE(HeartbeatPayload::Deserialize(ForgedCount(beacon.Take())).ok());
  WireWriter federation;
  federation.WriteString("sp0");
  federation.WriteU64(4);  // nodes reporting
  EXPECT_FALSE(
      FederationReportPayload::Deserialize(ForgedCount(federation.Take()))
          .ok());

  // Head-tuple runs carry varint counts: a forged run count, a forged row
  // count in a d(int, int) run, and an arity-0 run claiming 2^31 rows.
  auto forged_run = [](uint64_t runs, uint64_t arity, uint64_t rows) {
    WireWriter writer;
    writer.WriteVarU64(runs);
    writer.WriteVarString("d");
    writer.WriteVarU64(arity);
    writer.WriteVarU64(rows);
    writer.WriteU8(0);
    return writer.Take();
  };
  EXPECT_EQ(DecodeHeadTuples(forged_run(1u << 31, 2, 1)).code(),
            StatusCode::kParseError);
  EXPECT_EQ(DecodeHeadTuples(forged_run(1, 2, 1u << 31)).code(),
            StatusCode::kParseError);
  EXPECT_EQ(DecodeHeadTuples(forged_run(1, 0, 1u << 31)).code(),
            StatusCode::kParseError);

  // A run sends its name once but every row decodes to a copy of it: a
  // name past the relation-name bound, with the largest row count the
  // bytes still cover, would decode quadratically in the input.
  auto long_name_run = [](size_t name_bytes) {
    constexpr uint64_t kRows = 4096;
    WireWriter writer;
    writer.WriteVarU64(1);
    writer.WriteVarString(std::string(name_bytes, 'r'));
    writer.WriteVarU64(1);
    writer.WriteVarU64(kRows);
    for (uint64_t row = 0; row < kRows; ++row) {
      writer.WriteVarValue(Value::Int(0));
    }
    return writer.Take();
  };
  constexpr size_t kMaxName = RelationSchema::kMaxNameBytes;
  EXPECT_EQ(DecodeHeadTuples(long_name_run(kMaxName + 1)).code(),
            StatusCode::kParseError);
  EXPECT_TRUE(DecodeHeadTuples(long_name_run(kMaxName)).ok());
  // No peer can hold a relation the decoder would refuse.
  Database db;
  RelationSchema too_long(std::string(kMaxName + 1, 'r'),
                          {{"a", ValueType::kInt}});
  EXPECT_EQ(db.CreateRelation(too_long).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, UpdateDataPayloadRoundTrip) {
  UpdateDataPayload payload;
  payload.update = {FlowId::Scope::kUpdate, 4, 17};
  payload.rule_id = "r3";
  payload.path = {0, 2, 5};
  payload.tuples = InterleavedBatch();

  Result<UpdateDataPayload> back =
      UpdateDataPayload::Deserialize(payload.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().update, payload.update);
  EXPECT_EQ(back.value().rule_id, "r3");
  EXPECT_EQ(back.value().path, payload.path);
  // Same rows in the same order: runs never reorder a batch.
  EXPECT_EQ(back.value().tuples, payload.tuples);
}

TEST(ProtocolTest, RegroupedMultiHeadFiringsShareTheirNull) {
  // The kMultiHead rule d(K, Z), e(K, Z) :- d(K, V) mints one null per
  // firing and instantiates d,e,d,e,...
  const DatabaseSchema schema = StandardSchema();
  Result<ConjunctiveQuery> query = ParseQuery("d(K, Z), e(K, Z) :- d(K, V).");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  CoordinationRule rule("r0", "n0", "n1", std::move(query).value());
  ASSERT_TRUE(rule.Compile(schema, schema).ok());

  Database db;
  ASSERT_TRUE(db.CreateRelation(*schema.FindRelation("d")).ok());
  for (int64_t k = 0; k < 5; ++k) {
    db.Find("d")->Insert(Tuple{Value::Int(k), Value::Int(k * 10)});
  }
  std::vector<Tuple> frontiers = rule.EvaluateFrontier(db);
  ASSERT_EQ(frontiers.size(), 5u);
  NullMinter minter(7);
  std::vector<HeadTuple> rows;
  for (const Tuple& frontier : frontiers) {
    rule.InstantiateHeadInto(frontier, minter, rows);
  }
  ASSERT_EQ(rows[0].relation, "d");
  ASSERT_EQ(rows[1].relation, "e");

  GroupRunsByRelation(rows);
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 0; i < 5; ++i) {
    const HeadTuple& d = rows[i];
    const HeadTuple& e = rows[5 + i];
    EXPECT_EQ(d.relation, "d");
    EXPECT_EQ(e.relation, "e");
    // The i-th firing: its key, and one null shared by both atoms.
    EXPECT_EQ(d.tuple.at(0), frontiers[i].at(0));
    EXPECT_EQ(e.tuple.at(0), frontiers[i].at(0));
    ASSERT_TRUE(d.tuple.at(1).is_null());
    EXPECT_EQ(d.tuple.at(1), e.tuple.at(1));
    EXPECT_EQ(d.tuple.at(1).AsNull().counter, i);
  }
  // Grouped rows encode as two runs: the d run header comes first.
  const std::vector<uint8_t> bytes = EncodeHeadTuples(rows);
  ASSERT_GE(bytes.size(), 5u);
  EXPECT_EQ(bytes[0], 0x02);
  EXPECT_EQ(bytes[4], 0x05);  // five d rows
}

TEST(ProtocolTest, AllSmallPayloadsRoundTrip) {
  FlowId update{FlowId::Scope::kUpdate, 1, 2};
  FlowId query{FlowId::Scope::kQuery, 3, 4};

  EXPECT_EQ(UpdateRequestPayload::Deserialize(
                UpdateRequestPayload{update}.Serialize())
                .value()
                .update,
            update);
  // Both mode flags ride the request and must survive the wire in every
  // combination the protocol emits (refresh and incremental are mutually
  // exclusive; both-false is the plain full update).
  for (bool refresh : {false, true}) {
    for (bool incremental : {false, true}) {
      if (refresh && incremental) continue;
      Result<UpdateRequestPayload> mode_back =
          UpdateRequestPayload::Deserialize(
              UpdateRequestPayload{update, refresh, incremental}
                  .Serialize());
      ASSERT_TRUE(mode_back.ok());
      EXPECT_EQ(mode_back.value().refresh, refresh);
      EXPECT_EQ(mode_back.value().incremental, incremental);
    }
  }
  LinkClosedPayload closed{update, "r9"};
  Result<LinkClosedPayload> closed_back =
      LinkClosedPayload::Deserialize(closed.Serialize());
  ASSERT_TRUE(closed_back.ok());
  EXPECT_EQ(closed_back.value().rule_id, "r9");

  EXPECT_EQ(AckPayload::Deserialize(AckPayload{query}.Serialize())
                .value()
                .flow,
            query);
  EXPECT_EQ(UpdateCompletePayload::Deserialize(
                UpdateCompletePayload{update}.Serialize())
                .value()
                .update,
            update);
  QueryRequestPayload request{query, "r1", {7, 8}};
  Result<QueryRequestPayload> request_back =
      QueryRequestPayload::Deserialize(request.Serialize());
  ASSERT_TRUE(request_back.ok());
  EXPECT_EQ(request_back.value().label, (std::vector<uint32_t>{7, 8}));
}

TEST(ProtocolTest, FlowIdOrderingAndNames) {
  FlowId a{FlowId::Scope::kUpdate, 1, 1};
  FlowId b{FlowId::Scope::kUpdate, 1, 2};
  FlowId c{FlowId::Scope::kQuery, 1, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);  // update scope sorts before query scope
  EXPECT_EQ(a.ToString(), "update/1.1");
  EXPECT_EQ(c.ToString(), "query/1.1");
}

TEST(ProtocolTest, MalformedPayloadRejected) {
  std::vector<uint8_t> junk = {1, 2, 3};
  EXPECT_FALSE(UpdateDataPayload::Deserialize(junk).ok());
  EXPECT_FALSE(QueryRequestPayload::Deserialize(junk).ok());
  std::vector<uint8_t> bad_scope = {9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(UpdateRequestPayload::Deserialize(bad_scope).ok());
}

}  // namespace
}  // namespace codb
