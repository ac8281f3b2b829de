#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "table/csv.h"
#include "table/table.h"
#include "table/value.h"

namespace cdi::table {
namespace {

// ----------------------------------------------------------------- Value

TEST(ValueTest, NullAndTypes) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value(int64_t{3}).is_int64());
  EXPECT_TRUE(Value(3).is_int64());
  EXPECT_TRUE(Value("x").is_string());
  EXPECT_TRUE(Value(true).is_bool());
}

TEST(ValueTest, NumericView) {
  EXPECT_DOUBLE_EQ(Value(2.5).ToNumeric(), 2.5);
  EXPECT_DOUBLE_EQ(Value(7).ToNumeric(), 7.0);
  EXPECT_DOUBLE_EQ(Value(true).ToNumeric(), 1.0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "");
  EXPECT_EQ(Value(3).ToString(), "3");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_NE(Value(3), Value(3.0));  // different types
  EXPECT_EQ(Value::Null(), Value::Null());
}

// ---------------------------------------------------------------- Column

TEST(ColumnTest, AppendTypeChecking) {
  Column c("x", DataType::kDouble);
  EXPECT_TRUE(c.Append(Value(1.5)).ok());
  EXPECT_TRUE(c.Append(Value(2)).ok());  // int widened to double
  EXPECT_TRUE(c.Append(Value::Null()).ok());
  EXPECT_FALSE(c.Append(Value("no")).ok());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.Get(1).is_double());
}

TEST(ColumnTest, NullAccounting) {
  Column c = Column::FromDoubles("x", {1.0, std::nan(""), 3.0});
  EXPECT_EQ(c.NullCount(), 1u);
  EXPECT_NEAR(c.NullFraction(), 1.0 / 3.0, 1e-12);
  EXPECT_TRUE(c.IsNull(1));
  const auto d = c.ToDoubles();
  EXPECT_TRUE(std::isnan(d[1]));
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(ColumnTest, DistinctValues) {
  Column c = Column::FromStrings("x", {"a", "b", "a", "c", "b"});
  EXPECT_EQ(c.DistinctCount(), 3u);
  const auto d = c.DistinctValues();
  EXPECT_EQ(d[0].as_string(), "a");  // first-appearance order
  EXPECT_EQ(d[1].as_string(), "b");
}

TEST(ColumnTest, TakeReordersAndRepeats) {
  Column c = Column::FromInts("x", {10, 20, 30});
  Column t = c.Take({2, 0, 2});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.Get(0).as_int64(), 30);
  EXPECT_EQ(t.Get(1).as_int64(), 10);
  EXPECT_EQ(t.Get(2).as_int64(), 30);
}

// ----------------------------------------------------------------- Table

Table MakeCities() {
  Table t("cities");
  CDI_CHECK(t.AddColumn(Column::FromStrings("name", {"MA", "FL", "CA", "SD"}))
                .ok());
  CDI_CHECK(t.AddColumn(Column::FromDoubles("temp", {48.1, 71.8, 61.2, 45.5}))
                .ok());
  CDI_CHECK(
      t.AddColumn(Column::FromInts("cases", {121046, 640978, 735235, 15300}))
          .ok());
  return t;
}

TEST(TableTest, BasicShape) {
  Table t = MakeCities();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_TRUE(t.HasColumn("temp"));
  EXPECT_FALSE(t.HasColumn("absent"));
  EXPECT_EQ(t.ColumnNames()[2], "cases");
}

TEST(TableTest, AddColumnValidations) {
  Table t = MakeCities();
  EXPECT_FALSE(t.AddColumn(Column::FromInts("temp", {1, 2, 3, 4})).ok());
  EXPECT_FALSE(t.AddColumn(Column::FromInts("short", {1, 2})).ok());
  EXPECT_TRUE(t.AddColumn(Column::FromInts("ok", {1, 2, 3, 4})).ok());
}

TEST(TableTest, CellAccess) {
  Table t = MakeCities();
  auto v = t.GetCell(1, "name");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->as_string(), "FL");
  EXPECT_FALSE(t.GetCell(10, "name").ok());
  EXPECT_FALSE(t.GetCell(0, "zz").ok());
  EXPECT_TRUE(t.SetCell(0, "temp", Value(50.0)).ok());
  EXPECT_DOUBLE_EQ(t.GetCell(0, "temp")->as_double(), 50.0);
}

TEST(TableTest, AppendRowAtomicity) {
  Table t = MakeCities();
  // Wrong type in the middle: nothing should be appended.
  EXPECT_FALSE(
      t.AppendRow({Value("TX"), Value("oops"), Value(5)}).ok());
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_TRUE(t.AppendRow({Value("TX"), Value(65.0), Value(42)}).ok());
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST(TableTest, SelectAndDropColumns) {
  Table t = MakeCities();
  auto sel = t.SelectColumns({"cases", "name"});
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->num_cols(), 2u);
  EXPECT_EQ(sel->ColumnNames()[0], "cases");
  EXPECT_TRUE(t.DropColumn("temp").ok());
  EXPECT_FALSE(t.HasColumn("temp"));
  EXPECT_FALSE(t.DropColumn("temp").ok());
}

TEST(TableTest, RenameColumn) {
  Table t = MakeCities();
  EXPECT_TRUE(t.RenameColumn("temp", "avg_temp").ok());
  EXPECT_TRUE(t.HasColumn("avg_temp"));
  EXPECT_FALSE(t.RenameColumn("cases", "avg_temp").ok());  // collision
}

TEST(TableTest, SortByNumericAndString) {
  Table t = MakeCities();
  auto by_temp = t.SortBy("temp");
  ASSERT_TRUE(by_temp.ok());
  EXPECT_EQ(by_temp->GetCell(0, "name")->as_string(), "SD");
  EXPECT_EQ(by_temp->GetCell(3, "name")->as_string(), "FL");
  auto desc = t.SortBy("name", /*ascending=*/false);
  EXPECT_EQ(desc->GetCell(0, "name")->as_string(), "SD");
}

TEST(TableTest, SortPutsNullsLast) {
  Table t("t");
  CDI_CHECK(t.AddColumn(Column::FromDoubles(
                            "x", {2.0, std::nan(""), 1.0}))
                .ok());
  auto sorted = t.SortBy("x");
  ASSERT_TRUE(sorted.ok());
  EXPECT_DOUBLE_EQ(sorted->GetCell(0, "x")->as_double(), 1.0);
  EXPECT_TRUE(sorted->GetCell(2, "x")->is_null());
}

TEST(TableTest, DistinctRows) {
  Table t("t");
  CDI_CHECK(t.AddColumn(Column::FromStrings("k", {"a", "b", "a", "a"})).ok());
  CDI_CHECK(t.AddColumn(Column::FromInts("v", {1, 2, 1, 3})).ok());
  Table d = t.TakeRows(t.DistinctRowIndices());
  EXPECT_EQ(d.num_rows(), 3u);  // (a,1), (b,2), (a,3)
}

// Rows key on exact typed values, never on a decimal rendering: doubles
// one ulp apart are two values.
TEST(TableTest, DistinctRowsKeepsDoublesOneUlpApart) {
  const double a = 0.1;
  const double b = std::nextafter(a, 1.0);
  ASSERT_NE(a, b);
  Table t("t");
  CDI_CHECK(t.AddColumn(Column::FromDoubles("x", {a, b, a})).ok());
  Table d = t.TakeRows(t.DistinctRowIndices());
  ASSERT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.GetCell(0, "x")->as_double(), a);
  EXPECT_EQ(d.GetCell(1, "x")->as_double(), b);
}

// An int64 cell keys on its own 64 bits: 2^53 and 2^53 + 1 widen to one
// double, but they are two values.
TEST(TableTest, DistinctRowsKeepsInt64ValuesAbove2To53) {
  const int64_t a = int64_t{1} << 53;
  const int64_t b = a + 1;
  ASSERT_EQ(static_cast<double>(a), static_cast<double>(b));
  Table t("t");
  CDI_CHECK(t.AddColumn(Column::FromInts("v", {a, b, b})).ok());
  Table d = t.TakeRows(t.DistinctRowIndices());
  ASSERT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.GetCell(0, "v")->as_int64(), a);
  EXPECT_EQ(d.GetCell(1, "v")->as_int64(), b);
}

TEST(TableTest, DistinctRowsGroupsNullsWithNulls) {
  Table t("t");
  Column k("k", DataType::kString);
  Column v("v", DataType::kInt64);
  for (const char* s : {"a", "", "a", ""}) {
    CDI_CHECK(k.Append(*s ? Value(s) : Value::Null()).ok());
    CDI_CHECK(v.Append(Value::Null()).ok());
  }
  CDI_CHECK(t.AddColumn(std::move(k)).ok());
  CDI_CHECK(t.AddColumn(std::move(v)).ok());
  Table d = t.TakeRows(t.DistinctRowIndices());
  ASSERT_EQ(d.num_rows(), 2u);  // (a, null), (null, null)
  EXPECT_EQ(d.GetCell(0, "k")->as_string(), "a");
  EXPECT_TRUE(d.GetCell(1, "k")->is_null());
  EXPECT_TRUE(d.GetCell(1, "v")->is_null());
}

// A NaN stored as a value (not a null) keys on one canonical pattern, so
// NaNs of any sign or payload are one value.
TEST(TableTest, DistinctRowsGroupsEveryNanWithEveryNan) {
  Column x("x", DataType::kDouble);
  CDI_CHECK(x.AppendDouble(std::numeric_limits<double>::quiet_NaN()).ok());
  CDI_CHECK(x.AppendDouble(-std::numeric_limits<double>::quiet_NaN()).ok());
  CDI_CHECK(x.AppendDouble(std::nan("7")).ok());
  CDI_CHECK(x.AppendDouble(1.0).ok());
  ASSERT_EQ(x.NullCount(), 0u);
  Table t("t");
  CDI_CHECK(t.AddColumn(std::move(x)).ok());
  Table d = t.TakeRows(t.DistinctRowIndices());
  ASSERT_EQ(d.num_rows(), 2u);
  EXPECT_TRUE(std::isnan(d.GetCell(0, "x")->as_double()));
  EXPECT_EQ(d.GetCell(1, "x")->as_double(), 1.0);
}

TEST(TableTest, HeadAndToString) {
  Table t = MakeCities();
  EXPECT_EQ(t.Head(2).num_rows(), 2u);
  EXPECT_EQ(t.Head(99).num_rows(), 4u);
  const std::string s = t.ToString(2);
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(TableTest, SampleRowsDeterministicSubset) {
  Table t("t");
  std::vector<double> vals;
  for (int i = 0; i < 100; ++i) vals.push_back(i);
  CDI_CHECK(t.AddColumn(Column::FromDoubles("v", vals)).ok());
  cdi::Rng rng(5);
  Table s = t.SampleRows(10, &rng);
  EXPECT_EQ(s.num_rows(), 10u);
  // In original order and distinct.
  double prev = -1;
  for (std::size_t r = 0; r < s.num_rows(); ++r) {
    const double v = s.GetCell(r, "v")->as_double();
    EXPECT_GT(v, prev);
    prev = v;
  }
  // Same seed -> same sample.
  cdi::Rng rng2(5);
  Table s2 = t.SampleRows(10, &rng2);
  EXPECT_EQ(s.GetCell(0, "v")->as_double(), s2.GetCell(0, "v")->as_double());
  // n >= rows returns everything.
  cdi::Rng rng3(5);
  EXPECT_EQ(t.SampleRows(500, &rng3).num_rows(), 100u);
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, RoundTrip) {
  Table t = MakeCities();
  const std::string text = WriteCsvString(t);
  auto back = ReadCsvString(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 4u);
  EXPECT_EQ(back->GetCell(2, "name")->as_string(), "CA");
  EXPECT_DOUBLE_EQ(back->GetCell(1, "temp")->as_double(), 71.8);
  EXPECT_EQ(back->GetCell(0, "cases")->as_int64(), 121046);
}

TEST(CsvTest, TypeInference) {
  auto t = ReadCsvString("a,b,c,d\n1,1.5,yes,text\n2,2.5,no,more\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t->GetColumn("a"))->type(), DataType::kInt64);
  EXPECT_EQ((*t->GetColumn("b"))->type(), DataType::kDouble);
  EXPECT_EQ((*t->GetColumn("c"))->type(), DataType::kBool);
  EXPECT_EQ((*t->GetColumn("d"))->type(), DataType::kString);
}

TEST(CsvTest, NullTokens) {
  auto t = ReadCsvString("x,y\n1,-\n,2\nNA,3\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t->GetColumn("x"))->NullCount(), 2u);
  EXPECT_EQ((*t->GetColumn("y"))->NullCount(), 1u);
  // Column with nulls still infers int64 from remaining values.
  EXPECT_EQ((*t->GetColumn("x"))->type(), DataType::kInt64);
}

TEST(CsvTest, QuotedFields) {
  auto t = ReadCsvString("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetCell(0, "a")->as_string(), "x,y");
  EXPECT_EQ(t->GetCell(0, "b")->as_string(), "he said \"hi\"");
}

TEST(CsvTest, QuotedRoundTrip) {
  Table t("q");
  CDI_CHECK(t.AddColumn(Column::FromStrings("s", {"a,b", "c\"d"})).ok());
  auto back = ReadCsvString(WriteCsvString(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetCell(0, "s")->as_string(), "a,b");
  EXPECT_EQ(back->GetCell(1, "s")->as_string(), "c\"d");
}

TEST(CsvTest, RaggedLineFails) {
  EXPECT_FALSE(ReadCsvString("a,b\n1,2,3\n").ok());
}

TEST(CsvTest, QuotedFieldWithEmbeddedNewline) {
  // A newline inside quotes is field content, not a record terminator.
  auto t = ReadCsvString("a,b\n\"line1\nline2\",x\n\"p\r\nq\",y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetCell(0, "a")->as_string(), "line1\nline2");
  EXPECT_EQ(t->GetCell(0, "b")->as_string(), "x");
  EXPECT_EQ(t->GetCell(1, "a")->as_string(), "p\r\nq");
}

TEST(CsvTest, CrlfTerminatorsAndLiteralCarriageReturn) {
  // CRLF ends a record outside quotes; a trailing \r *inside* quotes is
  // data the old line-splitter used to eat.
  auto t = ReadCsvString("a,b\r\n1,\"x\r\"\r\n2,y\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetCell(0, "b")->as_string(), "x\r");
  EXPECT_EQ(t->GetCell(1, "b")->as_string(), "y");
  EXPECT_EQ(t->GetCell(0, "a")->as_int64(), 1);
}

TEST(CsvTest, QuotedEmptyStringIsNotNull) {
  // "" is the empty string; a bare empty field is missing.
  auto t = ReadCsvString("x,y\n\"\",1\n,2\n\"NA\",3\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t->GetColumn("x"))->NullCount(), 1u);
  EXPECT_EQ(t->GetCell(0, "x")->as_string(), "");
  EXPECT_EQ(t->GetCell(2, "x")->as_string(), "NA");
}

TEST(CsvTest, NewlineAndCarriageReturnRoundTrip) {
  // Writer must quote \n and \r so the reader reconstructs them exactly.
  Table t("q");
  CDI_CHECK(t.AddColumn(
                 Column::FromStrings("s", {"two\nlines", "tail\r", "plain"}))
                .ok());
  const std::string text = WriteCsvString(t);
  auto back = ReadCsvString(text);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), 3u);
  EXPECT_EQ(back->GetCell(0, "s")->as_string(), "two\nlines");
  EXPECT_EQ(back->GetCell(1, "s")->as_string(), "tail\r");
  EXPECT_EQ(back->GetCell(2, "s")->as_string(), "plain");
}

TEST(CsvTest, NoHeaderMode) {
  CsvOptions options;
  options.has_header = false;
  auto t = ReadCsvString("1,2\n3,4\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ColumnNames()[0], "c0");
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvTest, FileRoundTrip) {
  Table t = MakeCities();
  const std::string path = ::testing::TempDir() + "/cdi_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 4u);
  EXPECT_FALSE(ReadCsvFile("/definitely/not/there.csv").ok());
}

// ----------------------------------------------- typed storage semantics

TEST(ColumnTest, NullBitmapThroughSetAndAppend) {
  Column c = Column::FromDoubles("x", {1.0, 2.0, 3.0});
  EXPECT_EQ(c.NullCount(), 0u);
  CDI_CHECK(c.Set(1, Value::Null()).ok());
  EXPECT_EQ(c.NullCount(), 1u);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_TRUE(std::isnan(c.NumericAt(1)));
  CDI_CHECK(c.Set(1, Value(5.0)).ok());  // null -> value clears the bit
  EXPECT_EQ(c.NullCount(), 0u);
  EXPECT_DOUBLE_EQ(c.NumericAt(1), 5.0);
  c.AppendNull();
  CDI_CHECK(c.Append(Value(7.0)).ok());
  EXPECT_EQ(c.NullCount(), 1u);
  EXPECT_TRUE(c.IsNull(3));
  EXPECT_FALSE(c.IsNull(4));
}

TEST(ColumnTest, NullBitmapSurvivesTakeAndAppendRow) {
  Table t("t");
  Column x("x", DataType::kDouble);
  CDI_CHECK(x.Append(Value(1.0)).ok());
  CDI_CHECK(x.Append(Value::Null()).ok());
  CDI_CHECK(x.Append(Value(3.0)).ok());
  CDI_CHECK(t.AddColumn(std::move(x)).ok());
  CDI_CHECK(t.AppendRow({Value::Null()}).ok());
  ASSERT_EQ(t.num_rows(), 4u);
  const Column& col = t.ColumnAt(0);
  EXPECT_EQ(col.NullCount(), 2u);

  Table took = t.TakeRows({3, 1, 0});
  EXPECT_EQ(took.ColumnAt(0).NullCount(), 2u);
  EXPECT_TRUE(took.ColumnAt(0).IsNull(0));
  EXPECT_TRUE(took.ColumnAt(0).IsNull(1));
  EXPECT_FALSE(took.ColumnAt(0).IsNull(2));
}

TEST(ColumnTest, DistinctCountTypedEquality) {
  // +0.0 and -0.0 are distinct bit patterns; NaN inputs become nulls,
  // and nulls are excluded from the distinct set (as before).
  Column c = Column::FromDoubles(
      "x", {0.0, -0.0, 1.0, 1.0, std::nan(""), std::nan("")});
  EXPECT_EQ(c.DistinctCount(), 3u);
  EXPECT_EQ(c.DistinctValues().size(), 3u);

  Column s = Column::FromStrings("s", {"a", "b", "a"});
  CDI_CHECK(s.Set(0, Value("z")).ok());  // may strand "a"... 
  EXPECT_EQ(s.DistinctCount(), 3u);      // z, b, a (row 2)
  CDI_CHECK(s.Set(2, Value("b")).ok());  // now "a" is fully stranded
  EXPECT_EQ(s.DistinctCount(), 2u);      // dictionary size is 4, rows say 2
}

TEST(ColumnTest, ViewIsZeroCopyForDoublesAndSeesInPlaceWrites) {
  Column c = Column::FromDoubles("x", {1.0, 2.0, 3.0});
  const cdi::DoubleSpan v = c.View();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(c.View().data(), v.data());  // same buffer every time: zero-copy
  // In-place Set never reallocates, so the borrowed view sees the write.
  CDI_CHECK(c.Set(1, Value(42.0)).ok());
  EXPECT_DOUBLE_EQ(v[1], 42.0);
  CDI_CHECK(c.Set(0, Value::Null()).ok());
  EXPECT_TRUE(std::isnan(v[0]));
}

TEST(ColumnTest, IntViewIsDetachedOwningCopy) {
  Column c = Column::FromInts("x", {1, 2, 3});
  cdi::DoubleSpan v = c.View();  // widened copy, owned by the span
  CDI_CHECK(c.Set(0, Value(99)).ok());
  EXPECT_DOUBLE_EQ(v[0], 1.0);  // detached: write not visible
  EXPECT_DOUBLE_EQ(c.NumericAt(0), 99.0);
}

TEST(ColumnTest, ViewSizeIsFixedAtCreation) {
  Column c = Column::FromDoubles("x", {1.0, 2.0});
  // A view taken before an append keeps its original extent; callers must
  // re-take views after growing the column (growth may reallocate).
  EXPECT_EQ(c.View().size(), 2u);
  CDI_CHECK(c.Append(Value(3.0)).ok());
  EXPECT_EQ(c.View().size(), 3u);
}

TEST(CsvTest, DictionaryStringRoundTrip) {
  Table t("t");
  CDI_CHECK(t.AddColumn(Column::FromStrings(
                            "city", {"rome", "oslo", "rome", "rome", "oslo"}))
                .ok());
  CDI_CHECK(t.AddColumn(Column::FromInts("n", {1, 2, 3, 4, 5})).ok());
  auto back = ReadCsvString(WriteCsvString(t));
  ASSERT_TRUE(back.ok());
  const Column* city = *back->GetColumn("city");
  EXPECT_EQ(city->type(), DataType::kString);
  EXPECT_EQ(city->DistinctCount(), 2u);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(city->StringAt(r), t.ColumnAt(0).StringAt(r));
  }
}

// ----------------------------------------- Batch row append (AppendRows)

Table MakeTyped() {
  Table t("typed");
  CDI_CHECK(t.AddColumn(Column::FromStrings("city", {"rome", "oslo"})).ok());
  CDI_CHECK(t.AddColumn(Column::FromDoubles("temp", {21.5, 4.0})).ok());
  CDI_CHECK(t.AddColumn(Column::FromInts("cases", {10, 20})).ok());
  return t;
}

TEST(TableTest, AppendRowsMatchesPerRowAppend) {
  // The typed chunk-splice path must land on exactly the rows the boxed
  // per-row path produces — values, nulls, and string dictionaries alike.
  Column city("city", DataType::kString);
  CDI_CHECK(city.Append(Value("rome")).ok());
  city.AppendNull();
  CDI_CHECK(city.Append(Value("kyoto")).ok());
  Column temp("temp", DataType::kDouble);
  CDI_CHECK(temp.Append(Value::Null()).ok());
  CDI_CHECK(temp.Append(Value(-3.25)).ok());
  CDI_CHECK(temp.Append(Value(17.0)).ok());
  Column cases("cases", DataType::kInt64);
  CDI_CHECK(cases.Append(Value(7)).ok());
  CDI_CHECK(cases.Append(Value(8)).ok());
  cases.AppendNull();
  Table batch("batch");
  CDI_CHECK(batch.AddColumn(std::move(city)).ok());
  CDI_CHECK(batch.AddColumn(std::move(temp)).ok());
  CDI_CHECK(batch.AddColumn(std::move(cases)).ok());

  Table bulk = MakeTyped();
  ASSERT_TRUE(bulk.AppendRows(batch).ok());
  Table boxed = MakeTyped();
  for (std::size_t r = 0; r < batch.num_rows(); ++r) {
    std::vector<Value> row;
    for (std::size_t c = 0; c < batch.num_cols(); ++c) {
      row.push_back(batch.ColumnAt(c).Get(r));
    }
    CDI_CHECK(boxed.AppendRow(row).ok());
  }
  ASSERT_EQ(bulk.num_rows(), boxed.num_rows());
  for (std::size_t c = 0; c < bulk.num_cols(); ++c) {
    EXPECT_EQ(bulk.ColumnAt(c).NullCount(), boxed.ColumnAt(c).NullCount());
    for (std::size_t r = 0; r < bulk.num_rows(); ++r) {
      EXPECT_EQ(bulk.ColumnAt(c).Get(r), boxed.ColumnAt(c).Get(r))
          << "col " << c << " row " << r;
    }
  }
}

TEST(TableTest, AppendRowsMatchesByNameAndWidensInts) {
  // Batch columns arrive in a different order, and an int64 batch column
  // (what CSV inference yields for "42") lands in a double table column.
  Table t("t");
  CDI_CHECK(t.AddColumn(Column::FromDoubles("x", {1.5})).ok());
  CDI_CHECK(t.AddColumn(Column::FromStrings("k", {"a"})).ok());
  Table batch("b");
  CDI_CHECK(batch.AddColumn(Column::FromStrings("k", {"b", "c"})).ok());
  Column xs("x", DataType::kInt64);
  CDI_CHECK(xs.Append(Value(4)).ok());
  xs.AppendNull();
  CDI_CHECK(batch.AddColumn(std::move(xs)).ok());
  ASSERT_TRUE(t.AppendRows(batch).ok());
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.ColumnAt(0).type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(t.GetCell(1, "x")->as_double(), 4.0);
  EXPECT_TRUE(t.GetCell(2, "x")->is_null());
  EXPECT_TRUE(t.ColumnAt(0).IsNull(2));
  EXPECT_EQ(t.GetCell(2, "k")->as_string(), "c");
}

TEST(TableTest, AppendRowsSchemaMismatchIsAtomicAndDescriptive) {
  Table t = MakeTyped();
  // Wrong arity.
  Table narrow("n");
  CDI_CHECK(narrow.AddColumn(Column::FromStrings("city", {"x"})).ok());
  auto st = t.AppendRows(narrow);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("schema arity"), std::string::npos)
      << st.message();
  // Right arity, missing name.
  Table misnamed("m");
  CDI_CHECK(misnamed.AddColumn(Column::FromStrings("city", {"x"})).ok());
  CDI_CHECK(misnamed.AddColumn(Column::FromDoubles("temp", {1.0})).ok());
  CDI_CHECK(misnamed.AddColumn(Column::FromInts("count", {1})).ok());
  st = t.AppendRows(misnamed);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("missing column 'cases'"), std::string::npos)
      << st.message();
  // Right names, wrong type.
  Table mistyped("w");
  CDI_CHECK(mistyped.AddColumn(Column::FromStrings("city", {"x"})).ok());
  CDI_CHECK(mistyped.AddColumn(Column::FromStrings("temp", {"warm"})).ok());
  CDI_CHECK(mistyped.AddColumn(Column::FromInts("cases", {1})).ok());
  st = t.AppendRows(mistyped);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("expects"), std::string::npos) << st.message();
  // Every failure left the table untouched.
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ColumnAt(0).size(), 2u);
}

TEST(ColumnTest, AppendChunkMergesNullBitmapAcrossWordBoundary) {
  // 63 base rows + 10-row chunk: the chunk's bitmap is spliced at bit 63,
  // so its bits shift across the first word into the second.
  std::vector<double> base(63, 1.0);
  Column c = Column::FromDoubles("x", std::move(base));
  CDI_CHECK(c.Set(62, Value::Null()).ok());
  std::vector<double> extra(10, 2.0);
  Column chunk = Column::FromDoubles("x", std::move(extra));
  CDI_CHECK(chunk.Set(0, Value::Null()).ok());
  CDI_CHECK(chunk.Set(1, Value::Null()).ok());
  CDI_CHECK(chunk.Set(5, Value::Null()).ok());
  ASSERT_TRUE(c.AppendChunk(chunk).ok());
  ASSERT_EQ(c.size(), 73u);
  EXPECT_EQ(c.NullCount(), 4u);
  for (std::size_t r : {std::size_t{62}, std::size_t{63}, std::size_t{64},
                        std::size_t{68}}) {
    EXPECT_TRUE(c.IsNull(r)) << "row " << r;
  }
  EXPECT_FALSE(c.IsNull(65));
  EXPECT_TRUE(std::isnan(c.NumericAt(63)));
  EXPECT_DOUBLE_EQ(c.NumericAt(66), 2.0);
}

TEST(ColumnTest, AppendChunkReInternsStringDictionary) {
  // The chunk's codes reference its own dictionary; the splice must remap
  // them into the destination's, interning only referenced strings.
  Column c = Column::FromStrings("s", {"rome", "oslo"});
  Column chunk("s", DataType::kString);
  CDI_CHECK(chunk.Append(Value("kyoto")).ok());
  CDI_CHECK(chunk.Append(Value("rome")).ok());
  chunk.AppendNull();
  ASSERT_TRUE(c.AppendChunk(chunk).ok());
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c.StringAt(2), "kyoto");
  EXPECT_EQ(c.StringAt(3), "rome");
  EXPECT_TRUE(c.IsNull(4));
  EXPECT_EQ(c.DistinctCount(), 3u);
  // Appending a chunk of a mismatched type is rejected with both names.
  Column ints = Column::FromInts("n", {1});
  auto st = c.AppendChunk(ints);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'n'"), std::string::npos) << st.message();
}

}  // namespace
}  // namespace cdi::table
